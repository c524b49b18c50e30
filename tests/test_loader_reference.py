"""The file loaders' scanners against the character loops they replaced.

``_split_declarations`` cuts a grammar file into declarations and
``_decode_token_text`` reads a vocabulary token's escapes, each with one
regular expression.  The loops below are kept verbatim as the reference:
on generated text both must give the same result, or raise the same error
class with the same message, line and column.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundedgen.grammar import GrammarSyntaxError, _split_declarations
from boundedgen.vocab import VocabularyError, _decode_token_text

_HEX = "0123456789abcdefABCDEF"


def reference_split_declarations(text: str) -> list[tuple[str, int, int]]:
    decls = []
    buf: list[str] = []
    line, col = 1, 1
    start_line, start_col = 1, 1
    in_regex = False
    in_comment = False
    escaped = False
    pending = False  # buffer holds non-whitespace content
    i = 0
    while i < len(text):
        ch = text[i]
        if in_comment:
            if ch == "\n":
                in_comment = False
        elif in_regex:
            buf.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == "/":
                in_regex = False
        elif ch == "#":
            in_comment = True
        elif ch == "/":
            in_regex = True
            if not pending:
                start_line, start_col = line, col
                pending = True
            buf.append(ch)
        elif ch == ";":
            decls.append(("".join(buf), start_line, start_col))
            buf = []
            pending = False
        else:
            if not pending and not ch.isspace():
                start_line, start_col = line, col
                pending = True
            buf.append(ch)
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
        i += 1
    if in_regex:
        raise GrammarSyntaxError("unterminated /regex/", start_line, start_col)
    tail = "".join(buf).strip()
    if tail:
        raise GrammarSyntaxError(f"missing ';' after {tail.splitlines()[0]!r}", start_line, start_col)
    return [(d, ln, c) for d, ln, c in decls if d.strip()]


def reference_decode_token_text(text: str) -> bytes:
    out = bytearray()
    i = 0
    encoded = text
    while i < len(encoded):
        ch = encoded[i]
        if ch == "\\":
            nxt = encoded[i + 1 : i + 2]
            if nxt == "\\":
                out.append(0x5C)
                i += 2
            elif nxt == "x":
                pair = encoded[i + 2 : i + 4]
                if len(pair) != 2 or any(h not in _HEX for h in pair):
                    raise VocabularyError(f"bad \\x escape in token {text!r}")
                out.append(int(pair, 16))
                i += 4
            else:
                raise VocabularyError(
                    f"unknown escape '\\{nxt}' in token {text!r}; use \\xNN or \\\\"
                )
        else:
            try:
                out.extend(ch.encode("utf-8"))
            except UnicodeEncodeError:
                raise VocabularyError(
                    f"lone surrogate in token {text!r}; use \\xNN escapes for raw bytes"
                ) from None
            i += 1
    return bytes(out)


def outcome(function, text: str):
    """The result, or the error's class, message, line and column."""
    try:
        return function(text)
    except Exception as exc:  # noqa: BLE001 -- the class is what is compared
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


# Grammar text: the characters the splitter treats apart, whitespace of
# both kinds (a no-break space is whitespace to ``str.isspace`` too), and
# names.
GRAMMAR_CHARS = ":;|/#\\\nε \t\u00a0\rSab_1"
# Token text: escapes, good and bad, hex digits and not, a character that
# needs two UTF-8 bytes, and a lone surrogate that UTF-8 cannot encode, which
# both name as a VocabularyError.
TOKEN_PIECES = ["\\", "\\\\", "\\x", "x", "0", "7", "a", "F", "g", "Z", "é", "\n", " ", "\ud800"]


@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(st.text(GRAMMAR_CHARS, max_size=40))
@example("S: A ; # c\nA: /a\\/b;#/ ;")
@example("S: A ;\n  B: /x")
@example("S: A ;\n  B: x | y")
@example(" \u00a0/a\\\n/ ;")
def test_split_declarations_equals_the_reference(text):
    assert outcome(_split_declarations, text) == outcome(reference_split_declarations, text)


@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=16).map("".join))
@example("\\x41\\\\\\x7e")
@example("a\\")
@example("\\xg0")
@example("\\\n")
@example("\\x\ud800")
def test_decode_token_text_equals_the_reference(text):
    assert outcome(_decode_token_text, text) == outcome(reference_decode_token_text, text)
