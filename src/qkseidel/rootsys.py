"""Finite root systems and their Weyl groups, in Bourbaki numbering.

Roots are integer coordinate tuples in the simple-root basis, coweights are
integer coordinate tuples in the fundamental-coweight basis.  Both bases are
indexed by the nodes 1..rank, so coordinate j-1 belongs to node j.  All
arithmetic is exact.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .errors import SizeLimitError

Root = tuple[int, ...]
Coweight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

# Largest Weyl group weyl_group() enumerates: W(E6) has 51,840 elements and
# W(A7) 40,320, while W(D7) (322,560) and W(A8) (362,880) are refused.
WEYL_GROUP_LIMIT = 100_000

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


def _mat_vec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def _vec_mat(v: tuple[int, ...], m: Matrix) -> tuple[int, ...]:
    n = len(v)
    return tuple(sum(v[j] * m[j][k] for j in range(n)) for k in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ar[j] * bc[j] for j in range(n)) for bc in bt) for ar in a
    )


def root_is_positive(beta: Root) -> bool:
    """Roots have all coordinates of one sign; positive means some coordinate > 0."""
    return any(c > 0 for c in beta)


class WeylElement:
    """A Weyl group element, canonically its action matrix on the root lattice.

    The matrix of the inverse is carried along so that both the root action
    (columns of m) and the coweight action (rows of minv) stay cheap.
    Instances are interned per root system; equality is matrix equality.
    """

    __slots__ = ("rs", "m", "minv", "_word", "_length", "_hash")

    def __init__(self, rs: "RootSystem", m: Matrix, minv: Matrix):
        self.rs = rs
        self.m = m
        self.minv = minv
        self._word: Optional[tuple[int, ...]] = None
        self._length: Optional[int] = None
        self._hash = hash(m)

    def __repr__(self) -> str:
        word = self.reduced_word()
        return "W[%s]" % ("*".join("s%d" % i for i in word) or "e")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.m == other.m and self.rs is other.rs

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.rs._weyl(_mat_mul(self.m, other.m), _mat_mul(other.minv, self.minv))

    def inverse(self) -> "WeylElement":
        return self.rs._weyl(self.minv, self.m)

    @property
    def is_identity(self) -> bool:
        return self.m == self.rs.identity_matrix

    def act_root(self, beta: Root) -> Root:
        return _mat_vec(self.m, beta)

    def act_coweight(self, cw: Coweight) -> Coweight:
        # <w(lam), beta> = <lam, w^{-1}(beta)> forces the row action by minv.
        return _vec_mat(cw, self.minv)

    def length(self) -> int:
        if self._length is None:
            self._length = sum(
                1 for beta in self.rs.positive_roots if not root_is_positive(self.act_root(beta))
            )
        return self._length

    def inversions(self) -> tuple[Root, ...]:
        """Positive roots sent negative, sorted."""
        return tuple(
            sorted(
                beta
                for beta in self.rs.positive_roots
                if not root_is_positive(self.act_root(beta))
            )
        )

    def descent_set(self) -> tuple[int, ...]:
        """Right descents: nodes k with w(alpha_k) < 0."""
        return tuple(
            k for k in self.rs.nodes if not root_is_positive(self.act_root(self.rs.simple_root(k)))
        )

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word.

        Greedy: strip the smallest left descent (smallest i with w^{-1}(alpha_i)
        negative); a reduced word can start with i exactly when i is a left
        descent, so the smallest feasible first letter is chosen at each step.
        """
        if self._word is None:
            word = []
            cur = self
            while not cur.is_identity:
                for i in cur.rs.nodes:
                    if all(row[i - 1] <= 0 for row in cur.minv):
                        word.append(i)
                        cur = cur.rs.simple_reflection(i) * cur
                        break
                else:  # pragma: no cover - matrices outside W cannot be built
                    raise AssertionError("no left descent found")
            self._word = tuple(word)
        return self._word


class RootSystem:
    """Irreducible finite root system of a given type and rank.

    Positive roots are generated from the simple roots by closing under root
    strings: beta + alpha_i is a root iff the string through beta in direction
    alpha_i extends above beta, i.e. p - <alpha_i^vee, beta> > 0 where p is the
    depth of the string below beta.  Coroots are carried through the reflection
    orbit so beta^vee is available without a Euclidean realization.
    """

    def __init__(self, type_label: str, rank: int):
        if type_label not in VALID_RANKS or rank not in VALID_RANKS[type_label]:
            raise ValueError("no irreducible root system of type %s rank %s" % (type_label, rank))
        self.type_label = type_label
        self.rank = rank
        self.nodes = tuple(range(1, rank + 1))
        self.cartan = _cartan_matrix(type_label, rank)
        self.identity_matrix: Matrix = tuple(
            tuple(1 if j == k else 0 for k in range(rank)) for j in range(rank)
        )
        self._weyl_cache: dict[Matrix, WeylElement] = {}
        self._refl = {i: self._simple_reflection_matrix(i) for i in self.nodes}
        self.positive_roots = self._close_positive_roots()
        self.coroot_table = self._coroot_orbit()
        self.highest_root = self._find_highest_root()
        self.highest_root_coroot = self.coroot_table[self.highest_root]
        self._cartan_inv = self._invert_cartan()
        self._longest_cache: dict[frozenset[int], WeylElement] = {}
        self._weyl_group: Optional[tuple[WeylElement, ...]] = None

    def __repr__(self) -> str:
        return "RootSystem(%s, %d)" % (self.type_label, self.rank)

    # -- construction ---------------------------------------------------

    def _simple_reflection_matrix(self, i: int) -> Matrix:
        n = self.rank
        m = [[1 if j == k else 0 for k in range(n)] for j in range(n)]
        for k in range(n):
            m[i - 1][k] = (1 if k == i - 1 else 0) - self.cartan[i - 1][k]
        return tuple(tuple(row) for row in m)

    def _close_positive_roots(self) -> tuple[Root, ...]:
        n = self.rank
        simple = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
        found = set(simple)
        level = list(simple)
        ordered = list(simple)
        while level:
            nxt = []
            for beta in level:
                for j in range(n):
                    alpha = simple[j]
                    p = 0
                    down = tuple(b - a for b, a in zip(beta, alpha))
                    while down in found:
                        p += 1
                        down = tuple(b - a for b, a in zip(down, alpha))
                    if p - self.pair_coroot_root(j + 1, beta) > 0:
                        up = tuple(b + a for b, a in zip(beta, alpha))
                        if up not in found:
                            found.add(up)
                            nxt.append(up)
                            ordered.append(up)
            level = nxt
        return tuple(sorted(ordered))

    def _coroot_orbit(self) -> dict[Root, Root]:
        """Map each positive root to its coroot, in simple-coroot coordinates.

        Pairs (beta, beta^vee) are transported by simple reflections from the
        (alpha_i, alpha_i^vee) seeds; the reflection acts on coroot coordinates
        through the transposed Cartan pairing.
        """
        n = self.rank
        table: dict[Root, Root] = {}
        queue = []
        for j in range(n):
            root = tuple(1 if k == j else 0 for k in range(n))
            table[root] = root
            queue.append(root)
        while queue:
            beta = queue.pop()
            covec = table[beta]
            for i in self.nodes:
                img = _mat_vec(self._refl[i], beta)
                if img in table or not root_is_positive(img):
                    continue
                c = sum(covec[k] * self.cartan[k][i - 1] for k in range(n))
                coimg = tuple(
                    covec[k] - (c if k == i - 1 else 0) for k in range(n)
                )
                table[img] = coimg
                queue.append(img)
        assert set(table) == set(self.positive_roots)
        return table

    def _find_highest_root(self) -> Root:
        # the unique coordinatewise maximum; irreducibility guarantees it exists
        best = max(self.positive_roots, key=sum)
        assert all(all(b <= t for b, t in zip(beta, best)) for beta in self.positive_roots)
        return best

    def _invert_cartan(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.rank
        aug = [[Fraction(self.cartan[j][k]) for k in range(n)]
               + [Fraction(1 if k == j else 0) for k in range(n)] for j in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return tuple(tuple(row[n:]) for row in aug)

    # -- basic queries ---------------------------------------------------

    def simple_root(self, i: int) -> Root:
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def fundamental_coweight(self, i: int) -> Coweight:
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def pair_coroot_root(self, j: int, beta: Root) -> int:
        """<alpha_j^vee, beta> for a root (or root-lattice element) beta."""
        return sum(self.cartan[j - 1][k] * beta[k] for k in range(self.rank))

    def pairing(self, cw: Coweight, beta: Root) -> int:
        """<lambda, beta> for lambda in fundamental-coweight coordinates."""
        return sum(c * b for c, b in zip(cw, beta))

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
        n = self.rank
        m = [sum(Fraction(cw[j]) * self._cartan_inv[j][k] for j in range(n)) for k in range(n)]
        if all(x.denominator == 1 for x in m):
            return tuple(int(x) for x in m)
        return None

    # -- Weyl group -------------------------------------------------------

    def _weyl(self, m: Matrix, minv: Matrix) -> WeylElement:
        w = self._weyl_cache.get(m)
        if w is None:
            w = WeylElement(self, m, minv)
            self._weyl_cache[m] = w
        return w

    def identity_weyl(self) -> WeylElement:
        return self._weyl(self.identity_matrix, self.identity_matrix)

    def simple_reflection(self, i: int) -> WeylElement:
        m = self._refl[i]
        return self._weyl(m, m)

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
        """All of W, ordered by (length, reduced word).  Cached.

        Raises SizeLimitError before enumerating when |W| exceeds WEYL_GROUP_LIMIT.
        """
        if self._weyl_group is None:
            order = self.weyl_order()
            if order > WEYL_GROUP_LIMIT:
                raise SizeLimitError(
                    f"W({self.type_label}{self.rank}) has {order} elements, "
                    f"more than the enumeration limit {WEYL_GROUP_LIMIT}"
                )
            seen = {self.identity_weyl()}
            frontier = [self.identity_weyl()]
            while frontier:
                nxt = []
                for w in frontier:
                    for i in self.nodes:
                        u = w * self.simple_reflection(i)
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
                frontier = nxt
            self._weyl_group = tuple(sorted(seen, key=lambda w: (w.length(), w.reduced_word())))
        return self._weyl_group


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Shared instance per (type, rank); rejects invalid combinations."""
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
    while True:
        for j in sorted(key):
            if root_is_positive(w.act_root(rs.simple_root(j))):
                w = w * rs.simple_reflection(j)
                break
        else:
            break
    rs._longest_cache[key] = w
    return w


def is_antidominant(cw: Coweight) -> bool:
    return all(c <= 0 for c in cw)


def special_nodes(rs: RootSystem) -> tuple[int, ...]:
    """Nodes i with <omega_i^vee, alpha> in {0, 1} for every positive root alpha."""
    out = []
    for i in rs.nodes:
        if all(beta[i - 1] in (0, 1) for beta in rs.positive_roots):
            out.append(i)
    return tuple(out)
