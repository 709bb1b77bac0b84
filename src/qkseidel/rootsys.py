"""Finite root systems and their Weyl groups, in Bourbaki numbering.

Roots are integer coordinate tuples in the simple-root basis, coweights are
integer coordinate tuples in the fundamental-coweight basis.  Both bases are
indexed by the nodes 1..rank, so coordinate j-1 belongs to node j.  All
arithmetic is exact.

A Weyl group element is the signed permutation it induces on the finite
root set (W acts on it faithfully), so products, inverses, lengths and
descents are index lookups; its action matrices are derived views.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Optional

from .errors import SizeLimitError

Root = tuple[int, ...]
Coweight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

# Largest Weyl group weyl_group() enumerates: W(E6) has 51,840 elements and
# W(A7) 40,320, while W(D7) (322,560) and W(A8) (362,880) are refused.
WEYL_GROUP_LIMIT = 100_000

# Most positive roots of a system RootSystem builds.  Building it and Sigma takes
# about 0.15 s for A15 (120 positive roots), 1.1 s for A24 (300), 3 s for A30 (465)
# and 10 s for A40 (820) on a 2-core Xeon VM, and minutes for A99.  The largest
# systems kept are A24, B17, C17, D17 and E8.
POSITIVE_ROOT_LIMIT = 300

VALID_RANKS = {
    "A": range(1, 100),
    "B": range(2, 100),
    "C": range(2, 100),
    "D": range(3, 100),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


def _cartan_matrix(type_label: str, rank: int) -> Matrix:
    """Cartan matrix with entries a[j][k] = <alpha_j^vee, alpha_k> (0-indexed)."""
    a = [[2 if j == k else 0 for k in range(rank)] for j in range(rank)]

    def bond(j: int, k: int, ajk: int = -1, akj: int = -1) -> None:
        a[j][k] = ajk
        a[k][j] = akj

    if type_label in ("A", "B", "C"):
        for j in range(rank - 1):
            bond(j, j + 1)
        if type_label == "B":
            # alpha_rank is short: <alpha_n^vee, alpha_{n-1}> = -2
            bond(rank - 2, rank - 1, -1, -2)
        if type_label == "C":
            # alpha_rank is long: <alpha_{n-1}^vee, alpha_n> = -2
            bond(rank - 2, rank - 1, -2, -1)
    elif type_label == "D":
        for j in range(rank - 2):
            bond(j, j + 1)
        bond(rank - 3, rank - 1)
    elif type_label == "E":
        for j, k in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: rank - 2]:
            bond(j, k)
        bond(1, 3)
    elif type_label == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_3, alpha_4 are the short roots
        bond(2, 3)
    elif type_label == "G":
        bond(0, 1, -3, -1)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in a)


def _invert_cartan(cartan: Matrix) -> tuple[int, Matrix]:
    """The least den with den * C^{-1} integral, and the columns of den * C^{-1}.

    Fraction-free Gauss-Jordan on [C | I]: a row r is eliminated against the pivot
    row as r * pivot - f * pivot_row and divided by the gcd of its entries, so every
    entry stays an integer.  Row j ends as d_j e_j | d_j (C^{-1})_j.
    """
    n = len(cartan)
    aug = [list(row) + [int(j == k) for k in range(n)] for j, row in enumerate(cartan)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                row = [x * p - f * y for x, y in zip(aug[r], top)]
                g = math.gcd(*row)
                aug[r] = [x // g for x in row]
    den = math.lcm(*(row[j] // math.gcd(row[j], *row[n:]) for j, row in enumerate(aug)))
    return den, tuple(
        tuple(aug[j][n + k] * den // aug[j][j] for j in range(n)) for k in range(n)
    )


def _vec_mat(v: tuple[int, ...], m: Matrix) -> tuple[int, ...]:
    return tuple([sum(map(operator.mul, v, col)) for col in zip(*m)])


def root_is_positive(beta: Root) -> bool:
    """Roots have all coordinates of one sign; positive means some coordinate > 0."""
    return any(c > 0 for c in beta)


class WeylElement:
    """A Weyl group element, canonically the signed permutation it induces on the roots.

    perm[k] is the index in rs.roots of w(beta_k).  The roots list the
    positive roots first and then their negatives, so w(beta_k) < 0 exactly
    when perm[k] >= rs.npos.  W acts faithfully on its roots, so perm
    determines w, and a product is one composition of index tuples.  The
    action matrix on the root lattice (columns: the images of the simple
    roots) and that of the inverse are derived views, computed on first use.
    RootSystem._weyl alone builds instances, one per permutation and system, so
    equal elements are the same object and compare and hash as objects do, in C.
    _inverse and _left[i] (s_i w) are links to other elements, None until known;
    RootSystem.weyl_group() links every element to its inverse and each edge of its
    enumeration tree both ways, and peterson._star_words reads both slots directly,
    calling inverse() or left_reflect(i) only to fill an empty one.
    """

    __slots__ = ("rs", "perm", "_inverse", "_m", "_word", "_length", "_descents", "_left")

    def __init__(self, rs: "RootSystem", perm: tuple[int, ...]):
        self.rs = rs
        self.perm = perm
        self._inverse: Optional[WeylElement] = None
        self._m: Optional[Matrix] = None
        self._word: Optional[tuple[int, ...]] = None
        self._length: Optional[int] = None
        self._descents: Optional[tuple[int, ...]] = None
        self._left: Optional[list] = None  # left_reflect per node, None until asked

    def __repr__(self) -> str:
        word = self.reduced_word()
        return "W[%s]" % ("*".join("s%d" % i for i in word) or "e")

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if other.rs is not self.rs:
            raise ValueError(f"{other!r} is an element of {other.rs!r}, not of {self.rs!r}")
        return self.rs._weyl(itemgetter(*other.perm)(self.perm))

    def left_reflect(self, i: int) -> "WeylElement":
        """s_i w, remembered per node; a node outside rs.nodes raises ValueError."""
        if i not in self.rs.nodes:
            raise ValueError(f"node {i!r} outside the index set {self.rs.nodes}")
        memo = self._left
        if memo is None:
            memo = self._left = [None] * (self.rs.rank + 1)
        if memo[i] is None:
            memo[i] = self.rs.simple_reflection(i) * self
        return memo[i]

    def inverse(self) -> "WeylElement":
        if self._inverse is None:
            perm = self.perm
            scatter = [0] * len(perm)
            for k in range(len(perm)):
                scatter[perm[k]] = k
            inv = self.rs._weyl(tuple(scatter))
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    @property
    def m(self) -> Matrix:
        """Action matrix on the root lattice; column k is w(alpha_{k+1})."""
        if self._m is None:
            roots, perm = self.rs.roots, self.perm
            self._m = tuple(zip(*(roots[perm[k]] for k in self.rs.simple_indices)))
        return self._m

    @property
    def is_identity(self) -> bool:
        return self is self.rs._identity

    def act_root(self, beta: Root) -> Root:
        rs = self.rs
        return rs.roots[self.perm[rs.root_index[beta]]]

    def act_coweight(self, cw: Coweight) -> Coweight:
        """w(lam), by <w(lam), alpha_j> = <lam, w^{-1}(alpha_j)>: one pairing per node."""
        rs, inv = self.rs, self.inverse().perm
        return tuple([rs.pairing(cw, rs.roots[inv[k]]) for k in rs.simple_indices])

    def length(self) -> int:
        if self._length is None:
            npos = self.rs.npos
            self._length = sum(j >= npos for j in self.perm[:npos])
        return self._length

    def inversions(self) -> tuple[Root, ...]:
        """Positive roots sent negative, sorted."""
        npos = self.rs.npos
        return tuple(beta for beta, j in zip(self.rs.positive_roots, self.perm) if j >= npos)

    def descent_set(self) -> tuple[int, ...]:
        """Right descents: nodes k with w(alpha_k) < 0."""
        if self._descents is None:
            rs, perm = self.rs, self.perm
            self._descents = tuple(
                i for i, k in zip(rs.nodes, rs.simple_indices) if perm[k] >= rs.npos
            )
        return self._descents

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word.

        Greedy: strip the smallest left descent (smallest i with w^{-1}(alpha_i)
        negative, i.e. the smallest descent of w^{-1}); a reduced word can
        start with i exactly when i is a left descent, so the smallest feasible
        first letter is chosen at each step.  Every element met on the way,
        s_i w, keeps its own word.
        """
        chain = []
        cur = self
        # each step shortens the element, so the identity is reached within |R+| steps
        for _ in range(self.rs.npos + 1):
            if cur._word is not None:
                break
            i = cur.inverse().descent_set()[0]
            chain.append((cur, i))
            cur = cur.left_reflect(i)
        else:
            raise AssertionError(f"no reduced word for {self.perm} within |R+| steps")
        word = cur._word
        for elem, i in reversed(chain):
            word = (i,) + word
            elem._word = word
        return word


class RootSystem:
    """Irreducible finite root system of a given type and rank.

    Positive roots and their coroots come from one orbit: the simple roots
    under simple reflections, kept positive.  It reaches every positive root,
    since a non-simple one has some <alpha_i^vee, beta> > 0 and s_i beta is a
    lower positive root.  Carrying beta^vee along makes it available without a
    Euclidean realization.
    """

    def __init__(self, type_label: str, rank: int):
        if type_label not in VALID_RANKS or rank not in VALID_RANKS[type_label]:
            raise ValueError("no irreducible root system of type %s rank %s" % (type_label, rank))
        # |R+| is rank times the Coxeter number over 2
        coxeter = {"A": rank + 1, "B": 2 * rank, "C": 2 * rank, "D": 2 * rank - 2,
                   "E": {6: 12, 7: 18, 8: 30}.get(rank), "F": 12, "G": 6}[type_label]
        npos = rank * coxeter // 2
        if npos > POSITIVE_ROOT_LIMIT:
            raise SizeLimitError(
                f"{type_label}{rank} has {npos} positive roots, "
                f"more than the limit {POSITIVE_ROOT_LIMIT}"
            )
        self.type_label = type_label
        self.rank = rank
        self.nodes = tuple(range(1, rank + 1))
        self.cartan = _cartan_matrix(type_label, rank)
        # e_j is alpha_j in root coordinates and omega_j^vee in coweight coordinates
        self._unit = {
            j: tuple(1 if k == j - 1 else 0 for k in range(rank)) for j in self.nodes
        }
        self.coroot_table = self._coroot_orbit()
        self.positive_roots = tuple(sorted(self.coroot_table))
        self.highest_root = self._find_highest_root()
        self.highest_root_coroot = self.coroot_table[self.highest_root]
        self._special_nodes = tuple(
            i for i in self.nodes if all(beta[i - 1] in (0, 1) for beta in self.positive_roots)
        )
        self._cartan_inv_den, self._cartan_inv_cols = _invert_cartan(self.cartan)
        # Weyl elements permute these indices: the positive roots, then their negatives.
        self.npos = len(self.positive_roots)
        assert self.npos == npos, (self, npos)
        self.roots = self.positive_roots + tuple(
            tuple(-c for c in beta) for beta in self.positive_roots
        )
        self.root_index = {beta: k for k, beta in enumerate(self.roots)}
        self.simple_indices = tuple(self.root_index[self._unit[j]] for j in self.nodes)
        self._weyl_cache: dict[tuple[int, ...], WeylElement] = {}
        self._identity = self._weyl(tuple(range(len(self.roots))))
        self._identity._word = ()
        self._reflections: dict[Root, WeylElement] = {}
        self._simple_reflections = {j: self.reflection(self._unit[j]) for j in self.nodes}
        self._longest_cache: dict[frozenset[int], WeylElement] = {}
        self._weyl_group: Optional[tuple[WeylElement, ...]] = None
        # Caches of the affine, peterson, seidel and qk layers.  They live as long as the
        # system, which for a system from build_root_system is the whole process.
        self._ext_intern: dict = {}
        self._theorem_nodes: dict = {}
        self._sigma_group: Optional[tuple] = None
        self._datum_cache: dict = {}
        self._registry = None  # qk's default VerificationRegistry, made on first use

    def __repr__(self) -> str:
        return "RootSystem(%s, %d)" % (self.type_label, self.rank)

    # -- construction ---------------------------------------------------

    def _coroot_orbit(self) -> dict[Root, Root]:
        """Map each positive root to its coroot, in simple-coroot coordinates.

        Pairs (beta, beta^vee) are transported by simple reflections from the
        (alpha_i, alpha_i^vee) seeds; the reflection acts on coroot coordinates
        through the transposed Cartan pairing.
        """
        n = self.rank
        table = {root: root for root in self._unit.values()}
        queue = list(table)
        while queue:
            beta = queue.pop()
            covec = table[beta]
            for i in self.nodes:
                p = self.pair_coroot_root(i, beta)
                img = tuple(b - p if k == i - 1 else b for k, b in enumerate(beta))
                if img in table or not root_is_positive(img):
                    continue
                c = sum(covec[k] * self.cartan[k][i - 1] for k in range(n))
                coimg = tuple(
                    covec[k] - (c if k == i - 1 else 0) for k in range(n)
                )
                table[img] = coimg
                queue.append(img)
        return table

    def _find_highest_root(self) -> Root:
        # the unique coordinatewise maximum; irreducibility guarantees it exists
        best = max(self.positive_roots, key=sum)
        assert all(all(b <= t for b, t in zip(beta, best)) for beta in self.positive_roots)
        return best

    # -- basic queries ---------------------------------------------------

    def simple_root(self, i: int) -> Root:
        return self._unit[i]

    def fundamental_coweight(self, i: int) -> Coweight:
        return self._unit[i]

    def pair_coroot_root(self, j: int, beta: Root) -> int:
        """<alpha_j^vee, beta> for a root (or root-lattice element) beta."""
        return sum(self.cartan[j - 1][k] * beta[k] for k in range(self.rank))

    def pairing(self, cw: Coweight, beta: Root) -> int:
        """<lambda, beta> for lambda in fundamental-coweight coordinates."""
        return sum(map(operator.mul, cw, beta))

    def coroot(self, beta: Root) -> Root:
        """Coroot of a root, in simple-coroot coordinates."""
        if beta in self.coroot_table:
            return self.coroot_table[beta]
        neg = tuple(-b for b in beta)
        return tuple(-c for c in self.coroot_table[neg])

    def coroots_to_coweight(self, coroot_coords: Root) -> Coweight:
        """Rewrite sum m_k alpha_k^vee in fundamental-coweight coordinates."""
        return _vec_mat(coroot_coords, self.cartan)

    def coweight_to_coroots(self, cw: Coweight) -> Optional[tuple[int, ...]]:
        """Simple-coroot coordinates of a coweight, or None outside the coroot lattice."""
        den = self._cartan_inv_den
        m = [sum(map(operator.mul, cw, col)) for col in self._cartan_inv_cols]
        if any(x % den for x in m):
            return None
        return tuple(x // den for x in m)

    # -- Weyl group -------------------------------------------------------

    def _weyl(self, perm: tuple[int, ...]) -> WeylElement:
        w = self._weyl_cache.get(perm)
        if w is None:
            w = WeylElement(self, perm)
            self._weyl_cache[perm] = w
        return w

    def identity_weyl(self) -> WeylElement:
        return self._identity

    def simple_reflection(self, i: int) -> WeylElement:
        return self._simple_reflections[i]

    def reflection(self, beta: Root) -> WeylElement:
        """The reflection s_beta(gamma) = gamma - <beta^vee, gamma> beta in a root.  Cached."""
        w = self._reflections.get(beta)
        if w is None:
            if beta not in self.root_index:
                raise ValueError(f"{beta} is not a root of {self!r}")
            covec = self.coroots_to_coweight(self.coroot(beta))
            w = self._weyl(tuple(
                self.root_index[tuple(g - self.pairing(covec, gamma) * b
                                      for g, b in zip(gamma, beta))]
                for gamma in self.roots
            ))
            self._reflections[beta] = w
        return w

    def weyl_order(self) -> int:
        """|W| as the product of the degrees d = m + 1 over the exponents m.

        The exponents are the partition dual to the root heights (Kostant):
        exactly r_k - r_{k+1} of them equal k, where r_k counts the positive
        roots of height k.
        """
        heights = Counter(sum(beta) for beta in self.positive_roots)
        order = 1
        for k in range(1, max(heights) + 1):
            order *= (k + 1) ** (heights[k] - heights[k + 1])
        return order

    def weyl_group(self) -> tuple[WeylElement, ...]:
        """All of W, ordered by (length, reduced word), each element built once.  Cached.

        Every w != e has one parent y = s_i w, i its smallest left descent, and
        reduced_word(w) = (i,) + reduced_word(y).  So the children of y are the
        s_i y with y^{-1}(alpha_i) > 0 and y^{-1}(s_i alpha_j) > 0 for all j < i.
        Built with i outer and the previous level inner, each level comes out
        in word order, and every element gets its word, length and inverse.
        Each tree edge w = s_i y is kept both ways as left_reflect memos,
        y._left[i] = w and w._left[i] = y: 2(|W| - 1) entries and no product.
        Elements interned before the enumeration (by products, left_reflect or
        inverse()) are kept, not rebuilt; one without its inverse gets it here,
        and one with a memo keeps its entries.

        Raises SizeLimitError before enumerating when |W| exceeds WEYL_GROUP_LIMIT.
        """
        if self._weyl_group is None:
            order = self.weyl_order()
            if order > WEYL_GROUP_LIMIT:
                raise SizeLimitError(
                    f"W({self.type_label}{self.rank}) has {order} elements, "
                    f"more than the enumeration limit {WEYL_GROUP_LIMIT}"
                )
            npos, simple, weyl = self.npos, self.simple_indices, self._weyl
            # per node: s_i's permutation, the map y^{-1} -> y^{-1} s_i, and the map
            # reading y^{-1} at alpha_i and s_i(alpha_j), j < i (padded: always a tuple)
            letters = []
            for i in self.nodes:
                s = self.simple_reflection(i).perm
                tests = (simple[i - 1],) + tuple(s[k] for k in simple[: i - 1])
                letters.append((i, s, itemgetter(*s), itemgetter(*tests, tests[0])))
            slots, e = self.rank + 1, self._identity
            e._inverse = e
            if e._left is None:
                e._left = [None] * slots
            level = [e]
            group = list(level)
            while level:
                nxt = []
                for i, s, times_s, tests in letters:
                    for y in level:
                        y_inv = y._inverse.perm
                        if max(tests(y_inv)) < npos:
                            w = weyl(itemgetter(*y.perm)(s))
                            if w._inverse is None:
                                w_inv = weyl(times_s(y_inv))
                                w._inverse, w_inv._inverse = w_inv, w
                            if w._left is None:
                                w._left = [None] * slots
                            w._left[i], y._left[i] = y, w
                            w._word = (i,) + y._word
                            w._length = len(w._word)
                            nxt.append(w)
                group += nxt
                level = nxt
            assert len(group) == order, (self, len(group), order)
            self._weyl_group = tuple(group)
        return self._weyl_group


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Shared instance per (type, rank); rejects invalid combinations.

    The cache keeps every system it builds, and the caches held on it, for
    the life of the process.  It must not be bounded: Weyl and affine elements
    compare by identity within one system, and PetersonElement, QKElement and
    GroupAlgebraElement compare their systems with `rs is other.rs`, so a
    rebuilt system would make equal elements unequal.
    """
    return RootSystem(type_label, rank)


def weyl_from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Product of simple reflections; the word need not be reduced."""
    w = rs.identity_weyl()
    for i in word:
        if i not in rs.nodes:
            raise ValueError("node %r outside the index set" % (i,))
        w = w * rs.simple_reflection(i)
    return w


def longest_element(rs: RootSystem, subset: Iterable[int] | None = None) -> WeylElement:
    """Longest element of the parabolic subgroup generated by the given nodes.

    Greedy ascent: while some node of the subset is not a right descent,
    multiply by it; within a parabolic every maximal chain ends at the top.
    """
    key = frozenset(rs.nodes if subset is None else subset)
    if not key <= set(rs.nodes):
        raise ValueError("subset %r outside the index set" % (sorted(key),))
    cached = rs._longest_cache.get(key)
    if cached is not None:
        return cached
    w = rs.identity_weyl()
    # each step lengthens w, so the top is reached within |R+| steps
    for _ in range(rs.npos + 1):
        for j in sorted(key):
            if root_is_positive(w.act_root(rs.simple_root(j))):
                w = w * rs.simple_reflection(j)
                break
        else:
            break
    else:
        raise AssertionError(f"no longest element of {sorted(key)} within |R+| steps")
    rs._longest_cache[key] = w
    return w


def check_element(rs: RootSystem, w: WeylElement) -> None:
    """Refuse, as bad input, a finite or extended affine Weyl element of another system."""
    if w.rs is not rs:
        raise ValueError(f"{w!r} is an element of {w.rs!r}, not of {rs!r}")


def is_antidominant(cw: Coweight) -> bool:
    return max(cw, default=0) <= 0


def special_nodes(rs: RootSystem) -> tuple[int, ...]:
    """Nodes i with <omega_i^vee, alpha> in {0, 1} for every alpha > 0; found when rs is built."""
    return rs._special_nodes
