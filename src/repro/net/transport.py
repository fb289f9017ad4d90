"""Live BGP transport: asyncio TCP speaker driving the RFC 4271 FSM.

The simulator (:mod:`repro.sim`) bypasses session establishment; this
module provides the real thing — TCP connections carrying actual BGP
wire messages through :class:`repro.bgp.fsm.SessionFsm` — so two
daemons (or a daemon and any external BGP speaker) can interoperate
over sockets.  Used by the interop integration tests and the
``live_session`` example.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from ..bgp.constants import MessageType
from ..bgp.fsm import Action, FsmEvent, FsmState, SessionFsm
from ..bgp.messages import (
    BgpMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    split_stream,
)
from ..bgp.prefix import format_ipv4, parse_ipv4

__all__ = ["BgpSession", "TcpSpeaker"]


class BgpSession:
    """One TCP connection run through the session FSM."""

    def __init__(
        self,
        speaker: "TcpSpeaker",
        peer_name: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.speaker = speaker
        self.peer_name = peer_name
        self.reader = reader
        self.writer = writer
        daemon = speaker.daemon
        self.fsm = SessionFsm(
            daemon.asn, daemon.router_id, hold_time=speaker.hold_time
        )
        self.established = asyncio.Event()
        self.closed = asyncio.Event()
        self._keepalive_task: Optional[asyncio.Task] = None

    # -- plumbing ------------------------------------------------------

    def _send(self, message: BgpMessage) -> None:
        self.writer.write(message.encode())

    def send_raw(self, data: bytes) -> None:
        """Raw bytes from the daemon (already wire format)."""
        if not self.writer.is_closing():
            self.writer.write(data)

    def _apply(self, actions) -> None:
        for action, payload in actions:
            if action in (Action.SEND_OPEN, Action.SEND_KEEPALIVE, Action.SEND_NOTIFICATION):
                self._send(payload)
            elif action == Action.SESSION_ESTABLISHED:
                self.speaker.daemon.session_up(self.peer_name)
                self.established.set()
                self._keepalive_task = asyncio.get_event_loop().create_task(
                    self._keepalive_loop()
                )
            elif action == Action.SESSION_DOWN:
                self.speaker.daemon.session_down(self.peer_name)
                self.closed.set()
            elif action == Action.DELIVER_UPDATE:
                self.speaker.daemon.receive_message(self.peer_name, payload)

    async def _keepalive_loop(self) -> None:
        interval = max(1.0, self.fsm.negotiated_hold_time / 3.0)
        try:
            while self.fsm.state == FsmState.ESTABLISHED:
                await asyncio.sleep(interval)
                self._apply(self.fsm.process(FsmEvent.KEEPALIVE_TIMER_EXPIRES))
                await self.writer.drain()
        except (asyncio.CancelledError, ConnectionError):
            pass

    # -- lifecycle ----------------------------------------------------------

    async def run(self, initiate: bool) -> None:
        """Drive the session until it closes.

        ``initiate`` — we are the active opener (send OPEN first).
        """
        fsm = self.fsm
        fsm.process(FsmEvent.MANUAL_START)
        if initiate:
            self._apply(fsm.process(FsmEvent.TCP_CONNECTED))
        else:
            # Passive open: the FSM still moves through Connect.
            self._apply(fsm.process(FsmEvent.TCP_CONNECTED))
        await self.writer.drain()

        buffer = bytearray()
        try:
            while not self.closed.is_set():
                data = await self.reader.read(65536)
                if not data:
                    self._apply(fsm.process(FsmEvent.TCP_FAILED))
                    break
                buffer.extend(data)
                for message in split_stream(buffer):
                    self._apply(fsm.process(FsmEvent.MESSAGE_RECEIVED, message))
                await self.writer.drain()
        except ConnectionError:
            self._apply(fsm.process(FsmEvent.TCP_FAILED))
        finally:
            if self._keepalive_task is not None:
                self._keepalive_task.cancel()
            self.closed.set()
            if not self.writer.is_closing():
                self.writer.close()

    async def stop(self) -> None:
        self._apply(self.fsm.process(FsmEvent.MANUAL_STOP))
        try:
            await self.writer.drain()
        except ConnectionError:
            pass
        self.closed.set()
        if not self.writer.is_closing():
            self.writer.close()


class TcpSpeaker:
    """TCP front end for one daemon: listens and/or dials peers.

    The daemon's neighbors must be configured with
    :meth:`register_neighbor` (which wires ``send_fn`` into the live
    session) before sessions come up.
    """

    def __init__(self, daemon, host: str = "127.0.0.1", port: int = 1790, hold_time: int = 90):
        self.daemon = daemon
        self.host = host
        self.port = port
        self.hold_time = hold_time
        self.sessions: Dict[str, BgpSession] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._session_tasks: Dict[str, asyncio.Task] = {}

    def register_neighbor(self, peer_name: str, peer_asn: int) -> None:
        """Configure the daemon-side neighbor; bytes route to the live
        session once one exists."""

        def send(data: bytes) -> None:
            session = self.sessions.get(peer_name)
            if session is not None:
                session.send_raw(data)

        self.daemon.add_neighbor(peer_name, peer_asn, send)

    # -- passive side ------------------------------------------------------

    async def listen(self) -> None:
        self._server = await asyncio.start_server(
            self._on_accept, self.host, self.port
        )

    async def _on_accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # Identify the peer by the OPEN it sends; until then park the
        # session under its socket address.
        session = BgpSession(self, peer_name="", reader=reader, writer=writer)
        # Passive open: wait for the peer's OPEN to learn who it is.
        session.fsm.process(FsmEvent.MANUAL_START)
        session._apply(session.fsm.process(FsmEvent.TCP_CONNECTED))
        await writer.drain()
        buffer = bytearray()
        try:
            while not session.closed.is_set():
                data = await reader.read(65536)
                if not data:
                    session._apply(session.fsm.process(FsmEvent.TCP_FAILED))
                    break
                buffer.extend(data)
                for message in split_stream(buffer):
                    if isinstance(message, OpenMessage) and not session.peer_name:
                        session.peer_name = format_ipv4(message.router_id)
                        self.sessions[session.peer_name] = session
                    session._apply(
                        session.fsm.process(FsmEvent.MESSAGE_RECEIVED, message)
                    )
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            session._apply(session.fsm.process(FsmEvent.TCP_FAILED))
        finally:
            session.closed.set()
            if not writer.is_closing():
                writer.close()

    # -- active side ---------------------------------------------------------

    async def connect(self, peer_name: str, host: str, port: int) -> BgpSession:
        """Dial a peer; returns once the session object exists (use
        ``session.established.wait()`` for Established)."""
        reader, writer = await asyncio.open_connection(host, port)
        session = BgpSession(self, peer_name, reader, writer)
        self.sessions[peer_name] = session
        task = asyncio.get_event_loop().create_task(session.run(initiate=True))
        self._session_tasks[peer_name] = task
        return session

    async def close(self) -> None:
        for session in list(self.sessions.values()):
            await session.stop()
        for task in self._session_tasks.values():
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
