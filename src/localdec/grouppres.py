"""Free groups on chord alphabets, finite presentations and coset enumeration.

Letters of free words are nonzero integers: +i stands for the (i-1)-th
generator, -i for its inverse.  Coset 0 is always the trivial coset (the
subgroup being enumerated is the normal closure of the relators, so for
complete tables the cosets are exactly the elements of the presented
group).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence

from localdec.multigraph import (
    GraphError,
    Multigraph,
    Walk,
    check_walk,
    enumerate_short_cycles,
    spanning_tree,
)


class PresentationError(ValueError):
    pass


def free_reduce(letters: Sequence[int]) -> tuple:
    out = []
    for a in letters:
        if a == 0:
            raise PresentationError("0 is not a letter")
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


class FreeWord:
    """A freely reduced word in the generators of some free group."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[int] = ()):
        self.letters = free_reduce(letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "FreeWord(%r)" % (self.letters,)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple(-a for a in reversed(self.letters)))

    def is_empty(self) -> bool:
        return not self.letters


class Presentation:
    """Generators with names plus a list of relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Sequence[str], relators: Sequence[FreeWord]):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator name")
        self.relators = tuple(relators)
        n = len(self.generators)
        for w in self.relators:
            for a in w.letters:
                if not (1 <= abs(a) <= n):
                    raise PresentationError("relator uses unknown generator %d" % a)

    def __repr__(self):
        return "Presentation(%d generators, %d relators)" % (
            len(self.generators), len(self.relators))

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.generators == other.generators
                and self.relators == other.relators)

    def to_json_obj(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [list(w.letters) for w in self.relators],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Presentation":
        return Presentation(obj["generators"], [FreeWord(r) for r in obj["relators"]])

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


def abelianized_free_rank(p: Presentation) -> int:
    """Free rank of the abelianization: #generators minus the rational rank
    of the relator exponent matrix."""
    n = len(p.generators)
    rows = []
    for w in p.relators:
        row = [0] * n
        for a in w.letters:
            row[abs(a) - 1] += 1 if a > 0 else -1
        rows.append([Fraction(x) for x in row])
    rank = 0
    col = 0
    while col < n and rank < len(rows):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return n - rank


def relator_gf2_rowspace(p: Presentation) -> tuple:
    """Echelon basis of the mod-2 exponent vectors of the relators."""
    basis = {}
    for w in p.relators:
        vec = 0
        for a in w.letters:
            vec ^= 1 << (abs(a) - 1)
        for piv, row in basis.items():
            if vec & piv:
                vec ^= row
        if vec:
            basis[vec & -vec] = vec
    return tuple(basis[p2] for p2 in sorted(basis))


# ---------------------------------------------------------------------------
# walks to words
# ---------------------------------------------------------------------------

def _chord_letters(g: Multigraph, tree) -> dict:
    """Chord number i of the tree, in canonical edge order, mapped to its
    letter for crossing it from its stored tail: +(i+1) when the tail is
    the lower endpoint in vertex order or the chord is a loop, -(i+1) when
    the tail is the higher endpoint.  Crossing from the head gives the
    inverse letter.  Every chord letter and sign is decided here."""
    tset = set(tree)
    letters = {}
    for e in g.edges:
        if e in tset:
            continue
        u, v = g.ends[e]
        i = len(letters) + 1
        letters[e] = -i if g.vpos(v) < g.vpos(u) else i
    return letters


def _walk_letters(g: Multigraph, chord_letter: dict, w: Walk) -> list:
    letters = []
    for i, e in enumerate(w.edges):
        letter = chord_letter.get(e)
        if letter is not None:
            letters.append(letter if w.vertices[i] == g.ends[e][0] else -letter)
    return letters


def walk_to_word(g: Multigraph, tree, x0, w: Walk) -> FreeWord:
    """Image of a closed walk at x0 under the chord homomorphism.

    Tree edges contribute nothing; traversal of chord number i contributes
    +(i+1) when the chord is crossed from its lower endpoint in vertex
    order and -(i+1) otherwise, however its ends are listed.  A chord that
    is a loop always contributes the positive letter: a combinatorial walk
    cannot tell the two directions of a loop apart (its letter only matters
    when the loop is not a relator anyway).
    """
    check_walk(g, w)
    if not w.is_closed() or w.start != x0:
        raise GraphError("walk_to_word needs a closed walk at the base vertex")
    return FreeWord(_walk_letters(g, _chord_letters(g, tree), w))


def deck_group_presentation(g: Multigraph, r: int, x0) -> Presentation:
    """Presentation of the deck group of the r-local cover of g.

    Generators are the chords of the canonical BFS tree at x0.  Each cycle
    of length at most r contributes one relator: the word of the walk once
    around the cycle from its lowest vertex, toward its lower neighbour.
    The tree paths that would join that walk to x0 contribute no letters.
    """
    if not g.is_connected():
        raise GraphError("deck_group_presentation needs a connected graph")
    return _deck_presentation(g, r, _chord_letters(g, spanning_tree(g, x0)))


def _deck_presentation(g: Multigraph, r: int, chord_letter: dict) -> Presentation:
    """`deck_group_presentation` on the chord letters of its tree."""
    relators = [FreeWord(_walk_letters(g, chord_letter, cyc.walk_once_around()))
                for cyc in enumerate_short_cycles(g, r)]
    return Presentation([str(e) for e in chord_letter], relators)


# ---------------------------------------------------------------------------
# coset enumeration (HLT with row filling)
# ---------------------------------------------------------------------------

class CosetTable:
    """Action of the free group on cosets of the normal closure of the relators.

    Rows are live coset indices after compression, columns alternate
    generator/inverse.  `complete` tables define a transitive action under
    which every relator fixes every coset; partial tables are consistent
    with every relator scan performed before the coset budget ran out.

    A table that `_coset_tables` returns keeps the enumeration's raw rows
    and standardizes them as they are read (`_standardize`): `step` and
    `trace` renumber breadth-first only up to the row they read, while
    `table`, `n_cosets` and `repr` renumber to the end.  Breadth-first
    order does not depend on how far it has been run, so every read sees
    the rows of the fully standardized table.
    """

    __slots__ = ("generators", "complete", "limit", "defined_total",
                 "_rows", "_raw", "_bound", "_order", "_index")

    def __init__(self, generators, table, complete, limit, defined_total):
        self.generators = tuple(generators)
        self.complete = complete
        self.limit = limit
        self.defined_total = defined_total
        self._rows = table
        self._raw = None            # nothing left to standardize

    @classmethod
    def _snapshot(cls, generators, raw, bound, complete, limit, defined_total):
        """The table of the raw rows of `_coset_tables` below `bound`,
        numbered from 1 with 0 for an undefined entry, standardized as read."""
        t = cls(generators, [], complete, limit, defined_total)
        t._raw, t._bound = raw, bound
        t._order = [1]              # raw cosets in breadth-first order
        t._index = {1: 0}           # coset 1 is never merged into another coset
        return t

    def _standardize(self, coset: Optional[int]) -> list:
        """The rows standardized so far, extended past `coset` (to the end
        for None): live rows renumbered breadth-first from the trivial
        coset, in column order, from 0 and with -1 for an undefined entry.
        Rows at or above the bound are left out: a partial table keeps
        only the rows below the first unprocessed coset, which are fully
        processed (every relator scanned and every entry defined), while
        later rows may carry stray definitions whose scans never ran."""
        rows, raw = self._rows, self._raw
        if raw is None:
            return rows
        order, index, bound = self._order, self._index, self._bound
        while len(rows) < len(order) and (coset is None or len(rows) <= coset):
            row = raw[order[len(rows)]]
            for t in row:
                if 0 < t < bound and t not in index:
                    index[t] = len(order)
                    order.append(t)
            rows.append([index.get(t, -1) for t in row])
        if len(rows) == len(order):
            self._raw = self._order = self._index = None
        return rows

    @property
    def table(self) -> list:
        return self._standardize(None)

    @property
    def identity(self) -> int:
        return 0

    def n_cosets(self) -> int:
        return len(self.table)

    def step(self, coset: int, letter: int) -> Optional[int]:
        a = abs(letter)
        if not 0 < a <= len(self.generators):
            raise PresentationError("letter %d is not in +-1..+-%d"
                                    % (letter, len(self.generators)))
        rows = self._rows
        if coset >= len(rows):
            rows = self._standardize(coset)
        if not 0 <= coset < len(rows):
            raise PresentationError("coset %d is not in the table" % coset)
        entry = rows[coset][2 * (a - 1) + (letter < 0)]
        return None if entry < 0 else entry

    def trace(self, coset: int, word: FreeWord) -> Optional[int]:
        cur = coset
        for a in word.letters:
            cur = self.step(cur, a)
            if cur is None:
                return None
        return cur

    def __repr__(self):
        state = "complete" if self.complete else "partial"
        return "CosetTable(%s, %d cosets)" % (state, len(self.table))


def _letters_to_cols(word: FreeWord) -> tuple:
    return tuple(2 * (abs(a) - 1) + (0 if a > 0 else 1) for a in word.letters)


def todd_coxeter(p: Presentation, coset_limit: int = 100_000) -> CosetTable:
    """Coset enumeration for the normal closure of the relators in F(S).

    Strategy (fixed, so partial tables are reproducible): process live
    cosets in increasing order; scan every relator from the coset, filling
    gaps with new definitions; then define any still-undefined entries of
    its row in column order.  Coincidences collapse to the lower index.
    Stops with a consistent partial table once more than `coset_limit`
    cosets have been defined in total.  The strategy, not the layout of
    the code, fixes the sequence of definitions and coincidences, and so
    every table and `defined_total`.  This is the one-limit case of
    `_coset_tables`, which takes the tables of several limits from one
    run; once a coincidence is processed no live row names a dead coset.
    """
    return _coset_tables(p, (coset_limit,))[0]


def _coset_tables(p: Presentation, limits) -> list:
    """The tables `todd_coxeter(p, L)` returns for the non-decreasing
    limits L, taken from one enumeration.

    At the first live coset where more than L cosets have been defined,
    the run takes a snapshot of its rows and goes on to the next limit;
    the run continues from the state in which the one-limit run stops.
    A run that closes gives its complete table for every limit not yet
    reached.  A snapshot is standardized only as far as it is read
    (`CosetTable._standardize`): every snapshot but the last keeps a copy
    of the live rows below the first unprocessed coset, and the last one,
    or a complete table, keeps the working table itself.  Each coincidence
    clears every reference to the cosets it kills and releases their
    rows, so once it returns no live row names a dead coset: the scans
    and the snapshots read entries directly, and the union-find serves
    the coincidence alone.  The table a coincidence leaves does not
    depend on the order in which its dead rows are processed.

    The sequence of definitions and coincidences, and so every table and
    `defined_total`, is fixed by the strategy of `todd_coxeter`, not by
    the layout of this loop.  The scans, the definitions and the
    union-find run inline in one frame; a relator of length 1 is the
    direct deduction its scan would make; after a definition a scan goes
    on from where it stopped, as SCANANDFILL in Holt, Eick & O'Brien
    (2005), section 5.1, does, since a scan restarted from the coset
    would stop at the same two positions.  As there, the working table
    numbers cosets from 1 and marks an undefined entry 0.
    """
    if not limits:
        raise PresentationError("at least one coset limit is needed")
    if any(limit < 1 for limit in limits):
        raise PresentationError("coset_limit must be >= 1")
    if any(b < a for a, b in zip(limits, limits[1:])):
        raise PresentationError("coset limits must not decrease")
    columns = range(2 * len(p.generators))
    rel_cols = [_letters_to_cols(w) for w in p.relators if len(w) > 0]

    table = [None, [0] * len(columns)]   # row 0 is a placeholder
    rep = [0, 1]
    defined = 1

    def coincidence(a, b):
        """COINCIDENCE of Holt, Eick & O'Brien (2005), section 5.1, for
        live a != b: the larger dies, and each dead row, taken in turn,
        has its entries' back entries cleared and its entries moved to the
        live representatives, queueing the coincidences this forces."""
        if b < a:
            a, b = b, a
        rep[b] = a
        dead = [b]
        for y in dead:
            row_y = table[y]
            mu = y
            # compress reads row_y lazily, so it skips the back entry of a
            # self-loop, which lies in row_y and is cleared on the way
            for c in compress(columns, row_y):
                d = row_y[c]
                table[d][c ^ 1] = 0
                while rep[mu] != mu:        # find with path halving
                    rep[mu] = mu = rep[rep[mu]]
                nu = d
                while rep[nu] != nu:
                    rep[nu] = nu = rep[rep[nu]]
                row_mu, row_nu = table[mu], table[nu]
                if row_mu[c]:
                    x, t = nu, row_mu[c]
                elif row_nu[c ^ 1]:
                    x, t = mu, row_nu[c ^ 1]
                else:
                    row_mu[c] = nu
                    row_nu[c ^ 1] = mu
                    continue
                while rep[t] != t:          # union of the live x with t
                    rep[t] = t = rep[rep[t]]
                if t != x:
                    if t < x:
                        x, t = t, x
                    rep[t] = x
                    dead.append(t)
            table[y] = None

    tables = []
    alpha = 1
    while alpha < len(table):
        row = table[alpha]
        if row is None:
            alpha += 1
            continue
        while defined > limits[len(tables)]:
            # the run goes on and rewrites its rows, so every snapshot but
            # the last keeps a copy of those below alpha
            last = len(tables) + 1 == len(limits)
            rows = table if last else [r if r is None else r[:] for r in table[:alpha]]
            tables.append(CosetTable._snapshot(p.generators, rows, alpha, False,
                                               limits[len(tables)], defined))
            if last:
                return tables
        for cols in rel_cols:
            f = b = alpha
            if len(cols) == 1:
                # the deduction or coincidence the scan below would find
                c = cols[0]
                if row[c]:
                    f = row[c]
                elif row[c ^ 1]:
                    b = row[c ^ 1]
                else:
                    row[c] = row[c ^ 1] = alpha
            else:
                # forward from alpha to (i, f), backward to (j, b), then a
                # definition, or a deduction that the next forward pass
                # finds to close the scan when one gap is left
                i, j = 0, len(cols) - 1
                while True:
                    while i <= j and (t := table[f][cols[i]]):
                        f = t
                        i += 1
                    if i > j:
                        break
                    while j >= i and (t := table[b][cols[j] ^ 1]):
                        b = t
                        j -= 1
                    if j < i:
                        break
                    c = cols[i]
                    if i == j:
                        table[f][c] = b
                        table[b][c ^ 1] = f
                    else:
                        table[f][c] = len(table)
                        table.append([0] * len(columns))
                        table[-1][c ^ 1] = f
                        rep.append(len(rep))
                        defined += 1
            if f != b:
                coincidence(f, b)
                if rep[alpha] != alpha:
                    break
        else:
            for c in columns:
                if not row[c]:
                    row[c] = len(table)
                    table.append([0] * len(columns))
                    table[-1][c ^ 1] = alpha
                    rep.append(len(rep))
                    defined += 1
        alpha += 1

    return tables + [CosetTable._snapshot(p.generators, table, len(table), True,
                                          limit, defined)
                     for limit in limits[len(tables):]]


# ---------------------------------------------------------------------------
# finite groups from complete tables
# ---------------------------------------------------------------------------

class FiniteGroup:
    """Element list 0..n-1 with a multiplication table; 0 is the identity."""

    __slots__ = ("order", "mult", "inv", "gen_images", "element_words")

    def __init__(self, mult, gen_images=(), element_words=None):
        self.order = len(mult)
        self.mult = [list(row) for row in mult]
        self.gen_images = tuple(gen_images)
        self.element_words = element_words or {}
        inv = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.mult[a][b] == 0:
                    inv[a] = b
                    break
        if any(i is None for i in inv):
            raise PresentationError("multiplication table has no inverses")
        self.inv = inv
        self._check_axioms()

    def _check_axioms(self):
        n = self.order
        for a in range(n):
            if self.mult[0][a] != a or self.mult[a][0] != a:
                raise PresentationError("0 is not an identity")
            if sorted(self.mult[a]) != list(range(n)):
                raise PresentationError("row %d is not a permutation" % a)
            if sorted(self.mult[b][a] for b in range(n)) != list(range(n)):
                raise PresentationError("column %d is not a permutation" % a)
        # full associativity is cubic; verify exhaustively only at desk scale
        if n <= 60:
            triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
        else:
            triples = (((a * 7 + 3) % n, (a * 11 + 5) % n, (a * 13 + 1) % n)
                       for a in range(4 * n))
        for a, b, c in triples:
            if self.mult[self.mult[a][b]][c] != self.mult[a][self.mult[b][c]]:
                raise PresentationError("multiplication is not associative")

    def op(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def __len__(self):
        return self.order

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order

    def evaluate(self, word: FreeWord) -> int:
        """Image of a free word under generator -> gen_images."""
        cur = 0
        for a in word.letters:
            g = self.gen_images[abs(a) - 1]
            if a < 0:
                g = self.inv[g]
            cur = self.mult[cur][g]
        return cur

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        mult = [[(a + b) % n for b in range(n)] for a in range(n)]
        return FiniteGroup(mult, gen_images=(1 % n,))

    @staticmethod
    def klein_four() -> "FiniteGroup":
        mult = [[b ^ a for b in range(4)] for a in range(4)]
        return FiniteGroup(mult, gen_images=(1, 2))


def table_to_group(t: CosetTable) -> FiniteGroup:
    """The group structure a complete coset table induces on its cosets."""
    if not t.complete:
        raise PresentationError("table_to_group needs a complete table")
    n = t.n_cosets()
    words = {0: FreeWord()}
    queue = [0]
    head = 0
    while head < len(queue):
        a = queue[head]
        head += 1
        for gi in range(len(t.generators)):
            for letter in (gi + 1, -(gi + 1)):
                b = t.step(a, letter)
                if b is not None and b not in words:
                    words[b] = words[a] * FreeWord((letter,))
                    queue.append(b)
    if len(words) != n:
        raise PresentationError("complete table is not transitive")
    mult = [[t.trace(a, words[b]) for b in range(n)] for a in range(n)]
    gen_images = tuple(t.step(0, gi + 1) for gi in range(len(t.generators)))
    return FiniteGroup(mult, gen_images=gen_images, element_words=words)


def word_image(t: CosetTable, w: FreeWord) -> Optional[int]:
    """Trace w from the trivial coset; None when a partial table lacks an entry.

    On complete tables the result is 0 exactly when w lies in the normal
    closure of the relators.
    """
    return t.trace(t.identity, w)


def scan_relators_everywhere(t: CosetTable, p: Presentation) -> bool:
    """Every relator fixes every coset (exhaustive re-scan; complete tables only)."""
    if not t.complete:
        return False
    for a in range(t.n_cosets()):
        for w in p.relators:
            if t.trace(a, w) != a:
                return False
    return True
