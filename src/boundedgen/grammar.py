"""Context-free grammars with regex terminals and LL(1) table construction.

Grammar file format (UTF-8 text, declarations separated by ``;``)::

    # comment until end of line
    Json:  WS Value WS ;
    WS:    ws | ε ;          # alternatives split on '|', empty or
    ws:    /[ \\t\\n\\r]+/ ;      # 'ε' denotes the empty production
    lbrace: /\\{/ ;

A name declared with a ``/regex/`` body is a terminal; a name declared with
symbol alternatives is a nonterminal.  The first nonterminal declared is the
start symbol.  Terminal priority is declaration order: a string two
terminals match is lexed as the earlier one, and it belongs to that one's
automaton alone, so the costs count it only there.
No grammar transformation is performed: the rules must already be LL(1), and
left recursion is reported as a table conflict rather than rewritten.

Symbols are encoded as dense integers: terminal ``t`` is ``t`` in
``[0, n_terminals)`` and nonterminal ``A`` is ``n_terminals + A``.  The
pseudo-terminal END (``-1``) marks end of input in FIRST/FOLLOW sets.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from boundedgen.dfa import INITIAL, Dfa, Lexer, RegexError, compile_lexer

END = -1
EPSILON_MARK = "ε"


class GrammarError(ValueError):
    """Base class for grammar definition problems."""


class GrammarSyntaxError(GrammarError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UndeclaredSymbolError(GrammarError):
    def __init__(self, name: str, line: int):
        super().__init__(f"line {line}: symbol {name!r} is never declared")
        self.name = name


class DuplicateTerminalError(GrammarError):
    def __init__(self, name: str, line: int):
        super().__init__(f"line {line}: terminal {name!r} declared twice")
        self.name = name


class LlConflictError(GrammarError):
    """Two productions compete for one (nonterminal, lookahead) cell."""

    def __init__(self, nonterminal: str, lookahead: str, first: str, second: str):
        super().__init__(
            f"grammar is not LL(1): on lookahead {lookahead} nonterminal "
            f"{nonterminal} admits both [{first}] and [{second}]"
        )
        self.nonterminal = nonterminal
        self.lookahead = lookahead


@dataclass(frozen=True)
class Terminal:
    name: str
    pattern: str
    dfa: Dfa


@dataclass(frozen=True)
class Production:
    index: int
    lhs: int  # nonterminal id
    rhs: tuple[int, ...]  # encoded symbols; empty tuple = epsilon


@dataclass(frozen=True)
class Grammar:
    terminals: tuple[Terminal, ...]
    nonterminal_names: tuple[str, ...]
    productions: tuple[Production, ...]
    start: int  # nonterminal id
    source_hash: str
    lexer: Lexer = field(repr=False, compare=False)  # see dfa.compile_lexer
    # Built on first use.  A field, not cached_property: writing __dict__ slows every read.
    _ll1: Ll1Table | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_terminals(self) -> int:
        return len(self.terminals)

    @property
    def n_nonterminals(self) -> int:
        return len(self.nonterminal_names)

    def is_terminal(self, sym: int) -> bool:
        return 0 <= sym < self.n_terminals

    def nt_id(self, sym: int) -> int:
        return sym - self.n_terminals

    def nt_symbol(self, nt: int) -> int:
        return self.n_terminals + nt

    def symbol_name(self, sym: int) -> str:
        if sym == END:
            return "<end>"
        if self.is_terminal(sym):
            return self.terminals[sym].name
        return self.nonterminal_names[self.nt_id(sym)]

    def format_production(self, prod: Production) -> str:
        rhs = " ".join(self.symbol_name(s) for s in prod.rhs) or EPSILON_MARK
        return f"{self.nonterminal_names[prod.lhs]}: {rhs}"

    @property
    def ll1(self) -> Ll1Table:
        """The LL(1) prediction table; raises LlConflictError."""
        if self._ll1 is None:
            object.__setattr__(self, "_ll1", build_ll1_table(self))
        return self._ll1


@dataclass(frozen=True)
class Ll1Table:
    """Prediction table plus the FIRST/FOLLOW/nullable sets it came from.

    ``predict[(nt, lookahead)]`` gives the unique production index; lookahead
    END (-1) covers end of input.  ``first`` is keyed by encoded symbol,
    ``follow`` by nonterminal id.
    """

    predict: dict[tuple[int, int], int]
    nullable: frozenset[int]  # nonterminal ids
    first: dict[int, frozenset[int]]
    follow: dict[int, frozenset[int]]

    def lookup(self, nt: int, lookahead: int) -> int | None:
        return self.predict.get((nt, lookahead))


# --- grammar file parsing ----------------------------------------------------


# One piece of a grammar file: a comment with its newline, a closed
# /regex/, a lone '/' that opens one never closed, ';', or anything else.
_PIECE = re.compile(r"(?P<comment>#[^\n]*\n?)|/(?:\\.|[^\\/])*/|(?P<open>/)|;|[^#/;]+", re.DOTALL)


def _split_declarations(text: str) -> list[tuple[str, int, int]]:
    """Split on ';' outside comments and /regex/ bodies.

    Returns (declaration text, line, column) for each declaration start.
    """
    decls, buf, start = [], [], None
    line, counted = 1, 0  # the line of offset ``counted``
    for m in _PIECE.finditer(text):
        piece = m.group()
        if m.lastgroup == "comment":
            continue
        if piece == ";":
            if start is not None:
                decls.append(("".join(buf), *start))
            buf, start = [], None
            continue
        if start is None and piece.strip():
            at = m.start() + len(piece) - len(piece.lstrip())
            line, counted = line + text.count("\n", counted, at), at
            start = (line, at - text.rfind("\n", 0, at))
        if m.lastgroup == "open":
            raise GrammarSyntaxError("unterminated /regex/", *start)
        buf.append(piece)
    if start is not None:
        tail = "".join(buf).strip()
        raise GrammarSyntaxError(f"missing ';' after {tail.splitlines()[0]!r}", *start)
    return decls


def _is_identifier(name: str) -> bool:
    return name.isidentifier() or (name.isascii() and name.replace("_", "a").isalnum())


def parse_grammar(text: str) -> Grammar:
    """Parse a grammar definition; compile the lexer and each terminal's
    automaton from one labelled DFA (StateLimitError past its state cap)."""
    term_decls: list[tuple[str, str, int]] = []  # name, pattern, line
    rule_decls: list[tuple[str, list[list[str]], int]] = []  # name, alternatives, line
    seen_terminals: dict[str, int] = {}

    for decl, line, col in _split_declarations(text):
        head, sep, body = decl.partition(":")
        if not sep:
            raise GrammarSyntaxError(f"expected 'name: ...' in {decl.strip()!r}", line, col)
        name = head.strip()
        if not name or not _is_identifier(name):
            raise GrammarSyntaxError(f"bad symbol name {name!r}", line, col)
        body = body.strip()
        if body.startswith("/"):
            if not body.endswith("/") or len(body) < 2:
                raise GrammarSyntaxError(f"bad regex body for {name!r}", line, col)
            if name in seen_terminals:
                raise DuplicateTerminalError(name, line)
            seen_terminals[name] = line
            term_decls.append((name, body[1:-1], line))
        else:
            alts = []
            for alt in body.split("|"):
                symbols = [s for s in alt.split() if s != EPSILON_MARK]
                alts.append(symbols)
            rule_decls.append((name, alts, line))

    if not rule_decls:
        raise GrammarError("grammar declares no rules")

    try:
        lexer, dfas = compile_lexer([pattern for _, pattern, _ in term_decls])
    except RegexError as exc:
        raise GrammarError(f"terminal {term_decls[exc.pattern_index][0]!r}: {exc}") from exc
    if (empty := lexer[1][INITIAL]) >= 0:  # the label of the initial state
        raise GrammarError(
            f"terminal {term_decls[empty][0]!r} matches the empty string; "
            "the lexer never emits empty lexemes"
        )
    terminals = [Terminal(name, pattern, dfa) for (name, pattern, _), dfa in zip(term_decls, dfas)]
    term_ids = {t.name: i for i, t in enumerate(terminals)}

    nt_names: list[str] = []
    nt_ids: dict[str, int] = {}
    for name, _, line in rule_decls:
        if name in term_ids:
            raise GrammarSyntaxError(
                f"{name!r} is declared both as a terminal and a rule", line, 1
            )
        if name not in nt_ids:
            nt_ids[name] = len(nt_names)
            nt_names.append(name)

    n_t = len(terminals)
    productions: list[Production] = []
    for name, alts, line in rule_decls:
        lhs = nt_ids[name]
        for symbols in alts:
            rhs = []
            for sym in symbols:
                if sym in term_ids:
                    rhs.append(term_ids[sym])
                elif sym in nt_ids:
                    rhs.append(n_t + nt_ids[sym])
                else:
                    raise UndeclaredSymbolError(sym, line)
            productions.append(Production(len(productions), lhs, tuple(rhs)))

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Grammar(
        terminals=tuple(terminals),
        nonterminal_names=tuple(nt_names),
        productions=tuple(productions),
        start=0,
        source_hash=digest,
        lexer=lexer,
    )


def load_grammar(path) -> Grammar:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grammar(fh.read())


# --- FIRST / FOLLOW / prediction table --------------------------------------


def _compute_ends(g: Grammar, last: bool = False) -> tuple[dict[int, set[int]], frozenset[int]]:
    """Terminals each symbol can start with (FIRST), or end with (LAST) when
    ``last`` walks every right-hand side backwards, and the nullable
    nonterminals, from one fixpoint over the productions."""
    ends: dict[int, set[int]] = {t: {t} for t in range(g.n_terminals)}
    for nt in range(g.n_nonterminals):
        ends[g.nt_symbol(nt)] = set()
    nullable: set[int] = set()
    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            target = ends[g.nt_symbol(prod.lhs)]
            before = len(target)
            for sym in reversed(prod.rhs) if last else prod.rhs:
                target.update(ends[sym])
                if g.is_terminal(sym) or g.nt_id(sym) not in nullable:
                    break
            else:  # every symbol derives the empty string
                changed |= prod.lhs not in nullable
                nullable.add(prod.lhs)
            changed |= len(target) != before
    return ends, frozenset(nullable)


def first_of_sequence(
    g: Grammar, table_first: dict[int, frozenset[int]] | dict[int, set[int]],
    nullable: frozenset[int], seq: tuple[int, ...],
) -> tuple[set[int], bool]:
    """FIRST set of a symbol sequence plus whether the whole sequence is nullable."""
    out: set[int] = set()
    for sym in seq:
        out.update(table_first[sym])
        if g.is_terminal(sym) or g.nt_id(sym) not in nullable:
            return out, False
    return out, True


def build_ll1_table(g: Grammar) -> Ll1Table:
    """FIRST/FOLLOW to fixpoint, then the prediction table.

    Raises LlConflictError (naming the cell and both productions) when any
    (nonterminal, lookahead) would hold two productions; left recursion in a
    productive grammar always surfaces this way.
    """
    first, nullable = _compute_ends(g)

    follow: dict[int, set[int]] = {nt: set() for nt in range(g.n_nonterminals)}
    follow[g.start].add(END)
    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            for i, sym in enumerate(prod.rhs):
                if g.is_terminal(sym):
                    continue
                nt = g.nt_id(sym)
                tail_first, tail_nullable = first_of_sequence(
                    g, first, nullable, prod.rhs[i + 1 :]
                )
                before = len(follow[nt])
                follow[nt].update(tail_first)
                if tail_nullable:
                    follow[nt].update(follow[prod.lhs])
                if len(follow[nt]) != before:
                    changed = True

    predict: dict[tuple[int, int], int] = {}
    for prod in g.productions:
        heads, seq_nullable = first_of_sequence(g, first, nullable, prod.rhs)
        if seq_nullable:
            heads = heads | follow[prod.lhs]
        for lookahead in sorted(heads):
            cell = (prod.lhs, lookahead)
            other = predict.get(cell)
            if other is not None and other != prod.index:
                raise LlConflictError(
                    g.nonterminal_names[prod.lhs],
                    g.symbol_name(lookahead),
                    g.format_production(g.productions[other]),
                    g.format_production(prod),
                )
            predict[cell] = prod.index

    return Ll1Table(
        predict=predict,
        nullable=nullable,
        first={sym: frozenset(s) for sym, s in first.items()},
        follow={nt: frozenset(s) for nt, s in follow.items()},
    )


# --- terminal adjacency -------------------------------------------------------


def adjacent_terminal_pairs(g: Grammar, table: Ll1Table) -> frozenset[tuple[int, int]]:
    """Ordered terminal pairs that can appear adjacently in some derivation.

    For every production and every pair of positions with only nullable
    symbols between them, pair up what the left symbol can end with and what
    the right symbol can start with.  This over-approximates, never misses,
    the two-terminal continuations a top-down parse can request.
    """
    first = table.first
    last, nullable = _compute_ends(g, last=True)
    pairs: set[tuple[int, int]] = set()
    for prod in g.productions:
        rhs = prod.rhs
        for i in range(len(rhs)):
            for j in range(i + 1, len(rhs)):
                between = rhs[i + 1 : j]
                if any(
                    g.is_terminal(s) or g.nt_id(s) not in nullable for s in between
                ):
                    break
                for a in last[rhs[i]]:
                    for b in first[rhs[j]]:
                        pairs.add((a, b))
    return frozenset(pairs)
