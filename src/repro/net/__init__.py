"""Live asyncio TCP transport speaking RFC 4271 wire format."""

from .transport import BgpSession, TcpSpeaker

__all__ = ["BgpSession", "TcpSpeaker"]
