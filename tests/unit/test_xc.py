"""Unit tests for the xc compiler (lexer, parser, codegen)."""

import pytest

from repro.ebpf import HelperTable, VerifierConfig, VirtualMachine, verify
from repro.xc import CompileError, LexerError, ParseError, compile_source, parse
from repro.xc.lexer import tokenize


def run(source, helpers=None, constants=None, **regs):
    helper_ids = helpers.name_to_id() if helpers else {}
    program = compile_source(source, helper_ids, constants)
    allowed = set(helpers.ids()) if helpers else set()
    verify(program, VerifierConfig(allow_loops=True, allowed_helpers=allowed))
    return VirtualMachine(program, helpers).run(**regs)


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize('u64 f(u64 x) { return x + 0x10; } // c\n"s"')
        kinds = [token.kind for token in tokens]
        assert "type" in kinds and "name" in kinds and "num" in kinds and "str" in kinds

    def test_define_substitution(self):
        tokens = tokenize("#define N 5\nu64 f() { return N; }")
        assert any(token.kind == "num" and token.text == "5" for token in tokens)

    def test_chained_defines(self):
        tokens = tokenize("#define A B\n#define B 7\nu64 f() { return A; }")
        assert any(token.kind == "num" and token.text == "7" for token in tokens)

    def test_block_comment(self):
        tokens = tokenize("u64 f() { /* hi\nthere */ return 1; }")
        assert all(token.kind != "comment" for token in tokens)

    def test_bad_character(self):
        with pytest.raises(LexerError):
            tokenize("u64 f() { return `; }")

    def test_constants_injected(self):
        tokens = tokenize("u64 f() { return LIMIT; }", {"LIMIT": 9})
        assert any(token.kind == "num" and token.text == "9" for token in tokens)


class TestParser:
    def test_entry_is_last_function(self):
        program = parse("u64 a() { return 1; } u64 b() { return 2; }")
        assert program.entry.name == "b"

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            parse("")

    def test_rejects_six_params(self):
        with pytest.raises(ParseError):
            parse("u64 f(u64 a, u64 b, u64 c, u64 d, u64 e, u64 g) { return 0; }")

    def test_rejects_six_args(self):
        with pytest.raises(ParseError):
            parse("u64 f() { g(1,2,3,4,5,6); return 0; }")

    def test_pointer_style_params_tolerated(self):
        # The paper's Listing 1 signature parses as-is.
        program = parse("uint64_t export_igp(uint64_t *args UNUSED) { return 0; }")
        assert program.entry.params == ("args",)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("u64 f() { u64 x = 1 return x; }")


class TestCodegen:
    def test_arithmetic_precedence(self):
        assert run("u64 f() { return 2 + 3 * 4; }") == 14
        assert run("u64 f() { return (2 + 3) * 4; }") == 20

    def test_comparisons_yield_booleans(self):
        assert run("u64 f() { return (3 < 5) + (5 <= 5) + (7 > 9); }") == 2

    def test_logical_short_circuit(self):
        # Division by a zero variable would trap the right side if
        # short-circuiting failed to skip it... eBPF defines x/0 == 0,
        # so instead use a helper with a side effect.
        helpers = HelperTable()
        calls = []
        helpers.register(1, "boom", lambda vm, *a: calls.append(1) or 1)
        assert run("u64 f() { return 0 && boom(); }", helpers) == 0
        assert calls == []
        assert run("u64 f() { return 1 || boom(); }", helpers) == 1
        assert calls == []

    def test_logical_normalises_to_bool(self):
        assert run("u64 f() { return 5 && 9; }") == 1
        assert run("u64 f() { return 0 || 42; }") == 1

    def test_not_operator(self):
        assert run("u64 f() { return !0 + !7; }") == 1

    def test_unary_minus_and_tilde(self):
        assert run("u64 f() { return 0 - (-5); }") == 5
        assert run("u64 f() { return ~0 - 1; }") == (1 << 64) - 2

    def test_while_with_break_continue(self):
        source = """
        u64 f() {
            u64 total = 0;
            u64 i = 0;
            while (1) {
                i = i + 1;
                if (i > 10) { break; }
                if (i % 2 == 0) { continue; }
                total = total + i;
            }
            return total;
        }
        """
        assert run(source) == 25  # 1+3+5+7+9

    def test_if_else_chain(self):
        source = """
        u64 f(u64 x) {
            if (x == 1) { return 10; }
            else if (x == 2) { return 20; }
            else { return 30; }
        }
        """
        assert run(source, r1=1) == 10
        assert run(source, r1=2) == 20
        assert run(source, r1=9) == 30

    def test_scoping_shadows(self):
        source = """
        u64 f() {
            u64 x = 1;
            if (1) { u64 y = 41; x = x + y; }
            return x;
        }
        """
        assert run(source) == 42

    def test_redeclaration_rejected(self):
        with pytest.raises(CompileError):
            compile_source("u64 f() { u64 x = 1; u64 x = 2; return x; }")

    def test_undefined_name_rejected(self):
        with pytest.raises(CompileError):
            compile_source("u64 f() { return ghost; }")

    def test_assignment_to_undeclared_rejected(self):
        with pytest.raises(CompileError):
            compile_source("u64 f() { x = 1; return 0; }")

    def test_break_outside_loop_rejected(self):
        with pytest.raises(CompileError):
            compile_source("u64 f() { break; return 0; }")

    def test_arrays_and_typed_memory(self):
        source = """
        u64 f() {
            u8 buf[8];
            *(u32 *)(buf) = 0x11223344;
            *(u8 *)(buf + 4) = 0x55;
            return *(u16 *)(buf) + *(u8 *)(buf + 4);
        }
        """
        assert run(source) == 0x3344 + 0x55

    def test_string_literal_is_pointer(self):
        helpers = HelperTable()
        seen = []

        def collect(vm, ptr, *rest):
            seen.append(vm.memory.read_cstring(ptr))
            return 0

        helpers.register(1, "collect", collect)
        run('u64 f() { collect("coord"); return 0; }', helpers)
        assert seen == [b"coord"]

    def test_byteswap_builtins(self):
        assert run("u64 f() { return htons(0x1234); }") == 0x3412
        assert run("u64 f() { return htonl(0x11223344); }") == 0x44332211

    def test_signed_builtins(self):
        assert run("u64 f() { return sgt(0, -5); }") == 1
        assert run("u64 f() { return slt(-5, 0); }") == 1
        assert run("u64 f() { return sge(-5, -5) + sle(-6, -5); }") == 2

    def test_function_inlining(self):
        source = """
        u64 add3(u64 a, u64 b, u64 c) { return a + b + c; }
        u64 twice(u64 x) { return add3(x, x, 0); }
        u64 f() { return twice(4) + add3(1, 2, 3); }
        """
        assert run(source) == 14

    def test_inline_falls_off_end_returns_zero(self):
        source = """
        u64 nothing(u64 x) { if (x > 100) { return 1; } }
        u64 f() { return nothing(5); }
        """
        assert run(source) == 0

    def test_recursion_rejected(self):
        source = "u64 f(u64 x) { return f(x); } u64 main() { return f(1); }"
        with pytest.raises(CompileError, match="recursive"):
            compile_source(source)

    def test_helpers_unknown_function_rejected(self):
        with pytest.raises(CompileError, match="unknown function"):
            compile_source("u64 f() { return mystery(); }")

    def test_defines_and_constants(self):
        assert run("#define K 40\nu64 f() { return K + EXTRA; }", constants={"EXTRA": 2}) == 42

    def test_casts_are_ignored(self):
        assert run("u64 f() { return (u32)7; }") == 7

    def test_scalar_slot_exhaustion(self):
        body = "".join(f"u64 v{i} = {i};" for i in range(60))
        with pytest.raises(CompileError, match="scalar"):
            compile_source(f"u64 f() {{ {body} return 0; }}")

    def test_block_region_exhaustion(self):
        with pytest.raises(CompileError):
            compile_source("u64 f() { u8 big[300]; return 0; }")

    def test_compound_assignment(self):
        source = """
        u64 f() {
            u64 x = 10;
            x += 5;
            x -= 3;
            x *= 2;
            x /= 4;
            x <<= 2;
            x >>= 1;
            x |= 1;
            x &= 0xff;
            x ^= 2;
            return x;
        }
        """
        expected = 10
        expected += 5; expected -= 3; expected *= 2; expected //= 4
        expected <<= 2; expected >>= 1; expected |= 1; expected &= 0xFF; expected ^= 2
        assert run(source) == expected

    def test_array_indexing_read_write(self):
        source = """
        u64 f() {
            u8 bytes[8];
            u64 words[4];
            u64 i = 0;
            while (i < 8) {
                bytes[i] = i * 3;
                i += 1;
            }
            words[0] = 1000;
            words[1] = words[0] + bytes[7];
            words[1] += bytes[2];
            return words[1];
        }
        """
        assert run(source) == 1000 + 21 + 6

    def test_index_of_non_array_rejected(self):
        with pytest.raises(CompileError, match="not an array"):
            compile_source("u64 f() { u64 x = 1; return x[0]; }")

    def test_index_assign_to_non_array_rejected(self):
        with pytest.raises(CompileError, match="not an array"):
            compile_source("u64 f() { u64 x = 1; x[0] = 2; return 0; }")

    def test_index_jit_equivalence(self):
        from repro.ebpf import VirtualMachine

        source = """
        u64 f(u64 n) {
            u16 table[16];
            u64 i = 0;
            while (i < 16) {
                table[i] = i * i;
                i += 1;
            }
            return table[n];
        }
        """
        program = compile_source(source)
        for tier in ("interp", "jit"):
            vm = VirtualMachine(program, tier=tier, trusted_layout=tier == "jit")
            assert vm.run(r1=9) == 81

    def test_constant_folding_shrinks_programs(self):
        folded = compile_source("u64 f() { return 2 + 3 * 4 - (1 << 4); }")
        unfolded_equivalent = compile_source("u64 f(u64 a) { return a; }")
        # A fully-constant expression compiles to a handful of moves.
        assert len(folded) <= len(unfolded_equivalent) + 4

    def test_constant_folding_preserves_semantics(self):
        assert run("u64 f() { return (5 > 3) && (0 - 1 > 100); }") == 1
        assert run("u64 f() { return !(~0); }") == 0
        assert run("u64 f() { return (1 << 63) >> 62; }") == 2

    def test_folding_leaves_zero_division_to_runtime(self):
        # Not folded away; the eBPF runtime rule (x/0 == 0) applies.
        assert run("u64 f() { return 5 / 0; }") == 0
        assert run("u64 f() { return 5 % 0; }") == 5

    def test_for_loop(self):
        source = """
        u64 f(u64 n) {
            u64 total = 0;
            for (u64 i = 0; i < n; i += 1) {
                total += i;
            }
            return total;
        }
        """
        assert run(source, r1=10) == 45

    def test_for_continue_reaches_step(self):
        source = """
        u64 f() {
            u64 total = 0;
            for (u64 i = 0; i < 10; i += 1) {
                if (i % 2 == 0) { continue; }
                total += i;
            }
            return total;
        }
        """
        assert run(source) == 1 + 3 + 5 + 7 + 9

    def test_for_break(self):
        source = """
        u64 f() {
            u64 i = 0;
            for (;;) {
                i += 1;
                if (i == 7) { break; }
            }
            return i;
        }
        """
        assert run(source) == 7

    def test_for_scope_confined(self):
        with pytest.raises(CompileError, match="undefined"):
            compile_source(
                "u64 f() { for (u64 i = 0; i < 3; i += 1) { } return i; }"
            )

    def test_paper_listing1_compiles(self):
        from repro.plugins.igp_filter import SOURCE
        from repro.core.abi import HELPER_IDS, PLUGIN_CONSTANTS

        constants = dict(PLUGIN_CONSTANTS)
        constants["MAX_METRIC"] = 500
        program = compile_source(SOURCE, HELPER_IDS, constants)
        verify(program, VerifierConfig(allow_loops=True, allowed_helpers=set(HELPER_IDS.values())))
