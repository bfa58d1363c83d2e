"""Exhaustive enumeration and heuristic search over (0,1) matrix families.

Three families are enumerated exhaustively at desk scale in one process,
the first two by one algorithm:

* ``triangular``: all 2^(n(n-1)/2) (0,1) unit upper triangular matrices,
  n <= TRIANGULAR_MAX_N, by a dynamic programme over inverse row sums,
  bottom row first.  They obey u_{n-1} = 1 and u_i = 1 - (sum of u_j over
  the ones in row i), so the rows above i see only (u_i, ..., u_{n-1}).
  Each state keeps its matrix count and smallest word prefix; each row is
  one block of the word, so this gives the smallest word per sum.  At
  n = 9 the last level has 29 044 states for 2^36 matrices.
* ``w-determinant``: all 2^(n(n-1)/2) members J + L of the (1,2) family,
  L (0,1) unit lower triangular, n <= TRIANGULAR_MAX_N, by the same DP over
  the rows of L, top first, in the family's word: det(J + L) = 1 + S(L^{-1}).
* ``general``: all 2^(n^2) (0,1) matrices, n <= GENERAL_MAX_N, one set of
  distinct rows at a time.  Permuting the rows of A permutes the columns of
  A^{-1}, so all n! row orders share one inverse entry sum, and an invertible
  matrix has distinct nonzero rows.  Each such row set costs one bordered
  fraction-free elimination, for det(A) and det(A + J), and counts n! times.

The witness kept per sum is the matrix with the smallest packed word, which
makes witness selection independent of the scan order.  The triangular
extremes need no scan: :func:`bound_frontier` gives them in O(n).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from ._rng import coin_flips, shuffle
from .construct import CONSTRUCT_MAX_N
from .linalg import (InvariantError, Triangular01, _adjugate,
                     inverse_sum_via_determinant)
# The scan and the climb score a matrix by this name, the one bench/tracer.py wraps.
from .linalg import _det_pair as _objective
from .matrixio import format_scalar, json_scalar

# Known 7x7 invertible (0,1) matrices whose inverse entry sums (-7 and 11)
# fall outside the triangular range [-6, 10].
KNOWN_GENERAL_MIN_7X7 = (
    (1, 0, 1, 0, 1, 0, 0),
    (0, 1, 1, 0, 1, 0, 0),
    (0, 0, 1, 1, 1, 1, 1),
    (0, 0, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 1, 1, 1),
    (0, 0, 1, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 0, 1),
)
KNOWN_GENERAL_MAX_7X7 = (
    (1, 0, 1, 0, 1, 1, 1),
    (0, 1, 1, 0, 1, 1, 1),
    (0, 0, 1, 1, 0, 0, 1),
    (0, 0, 0, 1, 1, 1, 1),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (1, 1, 0, 0, 0, 0, 1),
)


# Largest n of the exhaustive scans, which all start at n = 3.  Each
# refusal says how fast the scan's work grows past its limit.
TRIANGULAR_MAX_N = 9
GENERAL_MAX_N = 5


class SearchExhaustedError(RuntimeError):
    """No invertible matrix was found within the sampling budget."""


# ---------------------------------------------------------------------------
# Distribution container


def _word_to_general_rows(n: int, word: int) -> list:
    return [[(word >> (i * n + j)) & 1 for j in range(n)] for i in range(n)]


def _word_to_w_rows(n: int, word: int) -> list:
    rows = [[2 if j == i else 1 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] += (word >> (i * (i - 1) // 2 + j)) & 1
    return rows


@dataclass
class SumDistribution:
    """Exhaustive-scan result: per-sum counts plus one witness per sum.

    ``counts`` maps each achieved sum (int, or Fraction for the general
    family) to the number of matrices achieving it; ``witness_words`` maps
    it to the smallest packed word achieving it.
    """

    family: str
    n: int
    counts: dict = field(default_factory=dict)
    witness_words: dict = field(default_factory=dict)

    @property
    def achieved(self) -> list:
        return sorted(self.counts)

    @property
    def min_sum(self):
        return min(self.counts)

    @property
    def max_sum(self):
        return max(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def witness_rows(self, s) -> list:
        word = self.witness_words[s]
        if self.family == "triangular":
            return Triangular01(self.n, word).rows()
        if self.family == "general":
            return _word_to_general_rows(self.n, word)
        return _word_to_w_rows(self.n, word)

    def to_json_dict(self, include_witnesses: bool = True) -> dict:
        out = {
            "family": self.family,
            "n": self.n,
            "min": json_scalar(self.min_sum),
            "max": json_scalar(self.max_sum),
            "achieved": [json_scalar(s) for s in self.achieved],
            "counts": {format_scalar(s): self.counts[s] for s in self.achieved},
        }
        if include_witnesses:
            out["witnesses"] = {format_scalar(s): self.witness_rows(s)
                                for s in self.achieved}
        return out


# ---------------------------------------------------------------------------
# Triangular and (1,2) families: one inverse row-sum DP


def _subset_sums(values: tuple) -> dict:
    """Map each subset sum of ``values`` to [how many subsets give it, the
    smallest subset mask giving it], bit t of a mask selecting values[t]."""
    sums = [0]
    for x in values:
        sums += [s + x for s in sums]
    out = {}
    for mask, s in enumerate(sums):
        entry = out.get(s)
        if entry is None:
            out[s] = [1, mask]
        else:
            entry[0] += 1
    return out


def _row_sum_levels(n: int, upper: bool):
    """Walk the inverse row sums of the (0,1) unit triangular matrices of
    size n in the family's own word, one row per level k = 1 .. n-2.

    Upper, in the :class:`Triangular01` word: level k fixes row n-1-k, whose
    k cells start at bit n(n-1)/2 - k(k+1)/2, and the new sum goes first.
    Lower, in the (1,2) word: level k fixes row k, whose k cells start at
    bit k(k-1)/2, and the new sum goes last.  Either way bit t of a row
    choice v selects state[t], and v gives 1 - (sum of those entries).

    Each level yields a dict from the tuple of fixed row sums, from (1,), to
    [number of choices of those rows, smallest word prefix]; choices with
    equal subset sums merge.  A row is one block of the word, so v lands as
    ``prefix | v << offset`` and the smallest mask is the smallest word.
    """
    states = {(1,): [1, 0]}
    bits = n * (n - 1) // 2
    for k in range(1, n - 1):
        offset = bits - k * (k + 1) // 2 if upper else k * (k - 1) // 2
        nxt = {}
        for tup, (count, prefix) in states.items():
            for s, (mult, v) in _subset_sums(tup).items():
                key = (1 - s,) + tup if upper else tup + (1 - s,)
                nxt[key] = [count * mult, prefix | v << offset]
        states = nxt
        yield states


def _row_sum_distribution(family: str, n: int, upper: bool,
                          shift: int) -> SumDistribution:
    """Distribution of shift + inverse entry sum over the (0,1) unit
    triangular matrices of size n (3 <= n <= TRIANGULAR_MAX_N) walked by
    :func:`_row_sum_levels`, folding the last row."""
    bits = n * (n - 1) // 2
    if not 3 <= n <= TRIANGULAR_MAX_N:
        raise ValueError(
            f"n={n} out of supported range 3..TRIANGULAR_MAX_N = {TRIANGULAR_MAX_N} "
            f"for 2^(n(n-1)/2) = 2^{bits} matrices: the row-sum states grow "
            "over tenfold per size (2821 at n = 8, 29044 at n = 9, 411727 at n = 10)")
    dist = SumDistribution(family, n)
    counts = dist.counts
    wit = dist.witness_words
    for states in _row_sum_levels(n, upper):
        pass
    offset = 0 if upper else bits - (n - 1)
    for tup, (count, prefix) in states.items():
        base = shift + 1 + sum(tup)
        for ss, (mult, v) in _subset_sums(tup).items():
            s = base - ss
            counts[s] = counts.get(s, 0) + count * mult
            w = prefix | v << offset
            if s not in wit or w < wit[s]:
                wit[s] = w
    if dist.total != 1 << bits:
        raise InvariantError(
            f"row-sum states count {dist.total} matrices, not 2^{bits}")
    return dist


def enumerate_triangular(n: int) -> SumDistribution:
    """Exhaustive inverse-sum distribution over all (0,1) unit upper
    triangular matrices of size n (3 <= n <= TRIANGULAR_MAX_N)."""
    return _row_sum_distribution("triangular", n, True, 0)


def enumerate_w_determinants(n: int) -> SumDistribution:
    """Exhaustive determinant distribution over the (1,2) family J + L,
    L (0,1) unit lower triangular (3 <= n <= TRIANGULAR_MAX_N), with no
    determinant: det(J + L) = 1 + S(L^{-1}), S the entry sum, so the
    row-sum states of L, which grow over tenfold per size, give it shifted
    by 1."""
    return _row_sum_distribution("w-determinant", n, False, 1)


def bound_frontier(m: int) -> list:
    """The Pareto frontier of (P, N), largest P first, after each of the first
    m rows of the lower walk: P sums the positive row sums so far, N negates
    the negative ones.  The next row's sum is 1 - s, s a subset sum in [-N, P]
    (the ends take all negative or all positive sums), so (P, N) goes to
    (P + N + 1, N) or to (P, N + P - 1); any other s is no larger in either
    coordinate, and both moves are monotone in (P, N).  After the last row the
    entry sum P - N + 1 - s spans [1 - N, 1 + P], both ends attained."""
    frontiers = [[(1, 0)]]  # one row, whose sum is 1
    while len(frontiers) < m:
        moves = sorted({move for p, q in frontiers[-1]
                        for move in ((p + q + 1, q), (p, q + p - 1))}, reverse=True)
        frontiers.append([(p, q) for i, (p, q) in enumerate(moves)
                          if all(q > b for _, b in moves[:i])])
    return frontiers[:m]


def max_abs_row_sum_vector(n: int) -> tuple:
    """Coordinate-wise maximum of |column sums of the inverse| over the
    triangular family of size n <= CONSTRUCT_MAX_N: coordinate k >= 1 is the
    largest max(N + 1, P - 1) on :func:`bound_frontier` after k rows, since
    the column sums of A^{-1} are the row sums of (A^T)^{-1}."""
    if not 1 <= n <= CONSTRUCT_MAX_N:
        raise ValueError(f"n={n} out of range 1..CONSTRUCT_MAX_N = {CONSTRUCT_MAX_N}")
    return (1,) + tuple(max(max(q + 1, p - 1) for p, q in frontier)
                        for frontier in bound_frontier(n - 1))


# ---------------------------------------------------------------------------
# General (0,1) family


def enumerate_general(n: int) -> SumDistribution:
    """Exhaustive inverse-sum distribution over all invertible (0,1)
    matrices of size n (3 <= n <= GENERAL_MAX_N).  Sums are exact rationals.

    Visits each set of n distinct nonzero row codes once (code bit j is
    column j) and counts it n! times.  Row 0 holds the lowest word bits, so
    the set's smallest packed word puts its codes in decreasing order, and
    increasing code tuples come in increasing order of that word: the first
    set to reach a pair (det(A + J) - det(A), det(A)) is its witness.
    """
    if not 3 <= n <= GENERAL_MAX_N:
        raise ValueError(
            f"n={n} out of supported range 3..GENERAL_MAX_N = {GENERAL_MAX_N}: "
            "the scan visits C(2^n - 1, n) row sets (169 911 at n=5; 6.8e7 at "
            "n=6 is beyond desk scale); for larger n use hill_climb_general")
    bits = [[(c >> j) & 1 for j in range(n)] for c in range(1 << n)]
    pairs = {}  # (det(A + J) - det(A), det(A)) -> [row sets, smallest word]
    for codes in itertools.combinations(range(1, 1 << n), n):
        det, det_plus = _objective([bits[c] for c in codes])
        if det == 0:
            continue
        key = (det_plus - det, det)
        entry = pairs.get(key)
        if entry is None:
            word = 0
            for c in codes:
                word = (word << n) | c
            pairs[key] = [1, word]
        else:
            entry[0] += 1
    dist = SumDistribution("general", n)
    counts = dist.counts
    wit = dist.witness_words
    orders = math.factorial(n)
    for (num, det), (sets, word) in pairs.items():
        s = Fraction(num, det)
        counts[s] = counts.get(s, 0) + sets * orders
        if s not in wit or word < wit[s]:
            wit[s] = word
    return dist


# ---------------------------------------------------------------------------
# Heuristic search in the general family


# Largest n, restarts and max_steps a search takes, each sized so that it
# alone, with the rest at the defaults, ends in minutes on one core.  A
# restart costs about 0.2 ms at n = 7, 0.7 ms at n = 12 and 0.1 s at
# n = 64 (one core of a 2-vCPU Xeon host), so n = 64 at 200 restarts
# takes under a minute, and SEARCH_MAX_RESTARTS about 20 s at n = 7.
# Climbs stop at a local optimum within 50 steps at every n measured, so
# only a climb that keeps improving meets SEARCH_MAX_STEPS: a step at
# n = 7 takes at most about 0.05 ms, so 200 restarts that all ran
# SEARCH_MAX_STEPS steps would take under two minutes.
SEARCH_MAX_N = 64
SEARCH_MAX_RESTARTS = 100_000
SEARCH_MAX_STEPS = 10_000


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seeding for random-restart hill climbing."""

    n: int
    direction: str = "max"
    restarts: int = 200
    max_steps: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "restarts", "max_steps", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name, value, low, limit_name, limit in (
                ("n", self.n, 3, "SEARCH_MAX_N", SEARCH_MAX_N),
                ("restarts", self.restarts, 1, "SEARCH_MAX_RESTARTS", SEARCH_MAX_RESTARTS),
                ("max_steps", self.max_steps, 1, "SEARCH_MAX_STEPS", SEARCH_MAX_STEPS)):
            if not low <= value <= limit:
                raise ValueError(f"{name} must lie in {low}..{limit_name} = {limit}, "
                                 f"got {value}")
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min', got {self.direction!r}")
        if self.seed < 0:
            # random.Random seeds with |seed|, which would fold the negative
            # seeds onto the positive ones.
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SearchResult:
    best_matrix: tuple
    best_sum: Fraction
    steps_taken: int
    restarts_used: int


class RankOneState:
    """An invertible integer matrix A with its exact determinant D and
    integer adjugate, for scoring and applying single-entry changes.

    With T = 1^T adj 1, R_i the column sums and C_j the row sums of the
    adjugate, the inverse entry sum is T / D.  Adding d to a_ij is a
    rank-one change (Sherman-Morrison), which gives the neighbour in O(1):

        D' = D + d adj_ji,    T' = (T D' - d R_i C_j) / D,

    and D' = 0 exactly when the neighbour is singular.  Once that division
    is checked exact, T' D - T D' = -d R_i C_j, so a flip is compared with
    the current sum without forming T' D.  Applying the change updates
    adj' = (D' adj - d (adj e_i)(e_j^T adj)) / D in O(n^2), each row's sum
    read from the new row, and the column sums R' = (D' R - d R_i adj_j) / D
    in O(n); both sets of sums must add up to T'.  Every division is exact;
    a remainder raises :class:`InvariantError`.  :meth:`improve` runs one
    climb step, scoring flips in a given order, and :meth:`apply` makes the
    flip it takes.

    T' itself is formed only for the flip taken.  When D = +1 or -1,
    dividing by D is multiplying by D, so no division can leave a remainder
    and none is tested: T' = (T D' - d R_i C_j) D, and the new rows and
    column sums are products.  The checks that both sets of sums add up to
    T' still hold the carried sums to the adjugate's entries.
    """

    __slots__ = ("rows", "det", "adj", "total", "col_sums", "row_sums")

    def __init__(self, rows: list):
        self.rows = rows
        self.det, self.adj = _adjugate(rows)
        self.col_sums = [sum(col) for col in zip(*self.adj)]
        self.row_sums = [sum(row) for row in self.adj]
        self.total = sum(self.row_sums)

    def improve(self, order, sgn: int) -> bool:
        """Flip the first (0,1) entry a_ij, (i, j) taken from ``order``,
        that strictly raises sgn * T / D, through :meth:`apply`; return
        False, changing nothing, if none does."""
        rows, adj, det, total = self.rows, self.adj, self.det, self.total
        col_sums, row_sums = self.col_sums, self.row_sums
        neg_sgn_det = -sgn * det
        if det * det == 1:
            # No remainder to test, so a flip with R_i C_j = 0, which keeps
            # T / D, is passed over unscored.
            for i, j in order:
                change = col_sums[i] * row_sums[j]
                if change:
                    d = 1 - 2 * rows[i][j]
                    det2 = det + d * adj[j][i]
                    if neg_sgn_det * d * change * det2 > 0:  # so D' != 0
                        self.apply(i, j, d, det2, (total * det2 - d * change) * det)
                        return True
            return False
        for i, j in order:
            d = 1 - 2 * rows[i][j]
            det2 = det + d * adj[j][i]
            if det2 == 0:
                continue
            change = d * col_sums[i] * row_sums[j]
            num = total * det2 - change
            if num % det:
                raise InvariantError(
                    f"rank-one update: {num} / {det} leaves remainder {num % det}")
            # T'/D' - T/D has the sign of (T' D - T D') D D', and with
            # T' D = T D' - d R_i C_j exact, T' D - T D' = -d R_i C_j.
            if neg_sgn_det * change * det2 > 0:
                self.apply(i, j, d, det2, num // det)
                return True
        return False

    def apply(self, i: int, j: int, d: int, det2: int, total2: int) -> None:
        """Add d to a_ij, given its (D', T') as :meth:`improve` scores it."""
        det = self.det
        # At D = +-1, (D' x - d y) / D is p x - q y with p = D' D, q = d D.
        unit = det * det == 1
        p, q = (det2 * det, d * det) if unit else (det2, d)
        adj_row = self.adj[j]
        adj_row_sum = sum(adj_row)
        adj = []
        row_sums = []
        for r, row in enumerate(self.adj):
            c = q * row[i]
            if not c and det2 == det:  # (D x - 0 y) / D = x
                adj.append(row)
                row_sums.append(self.row_sums[r])
                continue
            if unit:
                new = [p * x - c * y for x, y in zip(row, adj_row)]
            else:
                new = [(p * x - c * y) // det for x, y in zip(row, adj_row)]
            # Floor remainders all share the sign of D, so the row's
            # remainders vanish exactly when its quotients sum to the sum
            # of its numerators over D.
            new_sum = sum(new)
            if not unit and new_sum * det != p * sum(row) - c * adj_row_sum:
                raise InvariantError(
                    f"rank-one update: adjugate row {r} leaves a remainder "
                    f"on division by {det}")
            adj.append(new)
            row_sums.append(new_sum)
        # 1^T adj' = (D' R - d R_i adj[j]) / D gives the column sums in
        # O(n), checked for remainders as the rows are where |D| > 1.
        c = q * self.col_sums[i]
        if unit:
            col_sums = [p * x - c * y for x, y in zip(self.col_sums, adj_row)]
        else:
            col_sums = [(p * x - c * y) // det
                        for x, y in zip(self.col_sums, adj_row)]
        col_total = sum(col_sums)
        if not unit and col_total * det != p * sum(self.col_sums) - c * adj_row_sum:
            raise InvariantError(
                f"rank-one update: adjugate column sums leave a remainder "
                f"on division by {det}")
        self.adj = adj
        self.rows[i][j] += d
        self.det = det2
        self.col_sums = col_sums
        self.row_sums = row_sums
        self.total = sum(row_sums)
        if self.total != total2:
            raise InvariantError(
                f"rank-one update: adjugate sums to {self.total}, "
                f"the flip's score gave {total2}")
        if col_total != total2:
            raise InvariantError(
                f"rank-one update: adjugate column sums add up to "
                f"{col_total}, the flip's score gave {total2}")


def hill_climb_general(config: SearchConfig) -> SearchResult:
    """Random-restart single-bit-flip hill climbing over n x n (0,1) matrices.

    Each restart draws a fresh uniform matrix (resampled until invertible),
    then repeatedly flips the first entry, in a per-step shuffled order,
    that strictly improves the exact inverse entry sum.  Singular neighbors
    are always rejected.  Deterministic for a given config; the reported sum
    is re-verified by exact arithmetic before returning.

    Restart r draws from the stream of ``random.Random((seed << 20) ^ r)``,
    one generator reseeded per restart: each start cell as
    ``randint(0, 1)``, row-major, and each step's order as a ``shuffle`` of
    the n^2 cells.  Since seed >= 0 and r < SEARCH_MAX_RESTARTS < 2^20,
    each (seed, restart) pair has a stream of its own.  The draws are taken
    straight from ``getrandbits`` by :mod:`fibsum._rng`, the start cells in
    bulk and the shuffle step by step, word for word as those methods take
    them, so the results are theirs.

    A draw with a zero row or two equal rows is singular and is redrawn at
    once.  Any other draw, and the final check, costs one bordered
    elimination, ``linalg._det_pair``, which tests it for singularity and
    gives det(A) and det(A + J); the adjugate's D and T must equal det(A)
    and det(A + J) - det(A).  Flips are scored by :class:`RankOneState` in
    O(1) exact integer arithmetic, with no determinant.  Restarts are
    compared by their integer pairs (T, D), the first to reach the best sum
    keeping it, and one ``Fraction`` is built for the final check.
    """
    n = config.n
    sgn = 1 if config.direction == "max" else -1
    cells = [divmod(b, n) for b in range(n * n)]
    zero = bytes(n)
    gen = random.Random()
    getrandbits = gen.getrandbits
    best_rows = None
    best_total = best_det = None
    steps_total = 0
    for r in range(config.restarts):
        gen.seed((config.seed << 20) ^ r)
        rows = None
        for _ in range(200):
            flips = coin_flips(n * n, getrandbits)
            codes = [flips[b:b + n] for b in range(0, n * n, n)]
            if zero in codes or len(set(codes)) < n:
                continue  # singular: a zero row or two equal rows
            det, det_plus = _objective(codes)
            if det:
                rows = [list(code) for code in codes]
                break
        if rows is None:
            continue
        state = RankOneState(rows)
        if state.det != det or state.total != det_plus - det:
            raise InvariantError(
                f"start matrix: adjugate gives det {state.det} and total "
                f"{state.total}, determinants give {det} and {det_plus - det}")
        for _ in range(config.max_steps):
            order = cells[:]
            shuffle(order, getrandbits)
            if not state.improve(order, sgn):
                break
            steps_total += 1
        total, det = state.total, state.det
        # T/D - T_b/D_b has the sign of (T D_b - T_b D) D D_b; strict, so
        # the earliest restart keeps a tie.
        if (best_rows is None
                or sgn * (total * best_det - best_total * det) * det * best_det > 0):
            best_total, best_det = total, det
            best_rows = [list(row) for row in rows]
    if best_rows is None:
        raise SearchExhaustedError(
            f"no invertible {n}x{n} start matrix found in "
            f"{config.restarts} restarts x 200 draws")
    best = Fraction(best_total, best_det)
    verified = inverse_sum_via_determinant(best_rows)
    if verified != best:
        raise InvariantError(
            f"best sum {best} from the climb, {verified} from determinants")
    return SearchResult(tuple(tuple(row) for row in best_rows), verified,
                        steps_total, config.restarts)
