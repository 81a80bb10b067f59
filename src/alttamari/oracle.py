"""Brute-force reference implementations used to cross-check results.

Everything here works on raw step words and dense relation matrices, and
deliberately shares no code with the tree and vector machinery it
validates: rotations are recomputed from scratch off an altitude profile,
path sets are enumerated by a plain recursion, reachability is built in
a topological order found from the covers alone, and censuses come from
testing comparable pairs for the chain property, reading each interval
off the matrix rows and the column masks; a failed pair [b, t] rules out
every [b, t'] with t <= t'.
"""

from __future__ import annotations

NORTH = "N"
EAST = "E"


def count_paths_above(nu_word: str) -> int:
    """Ballot-style count of the paths weakly above nu, by dynamic programming.

    This is the size of every lattice over nu. Besides cross-checking it,
    ``verify --max-size`` uses it to estimate each base path's work when it
    deals the paths out to its worker processes (``cli._sweep_cost``).
    """
    reach = _east_reach(nu_word)
    ways = [1] * (reach[0] + 1)
    for y in range(1, len(reach)):
        prev = ways
        ways = []
        total = 0
        for x in range(reach[y] + 1):
            if x < len(prev):
                total += prev[x]
            ways.append(total)
    return ways[-1]


def _east_reach(word: str) -> list[int]:
    """Largest x allowed at each height: the east prefix sums of the word."""
    reach = [0]
    for ch in word:
        if ch == NORTH:
            reach.append(reach[-1])
        else:
            reach[-1] += 1
    return reach


def enumerate_words_above(nu_word: str) -> list[str]:
    """All step words weakly above nu with the same endpoints."""
    reach = _east_reach(nu_word)
    n = len(reach) - 1
    m = reach[-1]
    out: list[str] = []

    def walk(prefix: list[str], x: int, y: int) -> None:
        if x == m and y == n:
            out.append("".join(prefix))
            return
        if y < n:
            prefix.append(NORTH)
            walk(prefix, x, y + 1)
            prefix.pop()
        if x < reach[y]:
            prefix.append(EAST)
            walk(prefix, x + 1, y)
            prefix.pop()

    walk([], 0, 0)
    return out


def altitude_profile(word: str, increments: tuple[int, ...]) -> list[int]:
    profile = [0]
    seen = 0
    for ch in word:
        if ch == NORTH:
            profile.append(profile[-1] + increments[seen])
            seen += 1
        else:
            profile.append(profile[-1] - 1)
    return profile


def naive_rotations(word: str, increments: tuple[int, ...]) -> list[tuple[int, str]]:
    """Every (valley ordinal, rotated word) pair, recomputed from scratch."""
    profile = altitude_profile(word, increments)
    results = []
    ordinal = 0
    for i in range(len(word) - 1):
        if word[i] == EAST and word[i + 1] == NORTH:
            target = profile[i + 1]
            stop = None
            for j in range(i + 2, len(word) + 1):
                if profile[j] == target:
                    stop = j
                    break
            if stop is None:
                raise ValueError(f"no altitude return after valley at step {i} of {word!r}")
            rotated = word[:i] + word[i + 1 : stop] + EAST + word[stop:]
            results.append((ordinal, rotated))
            ordinal += 1
    return results


def closure_from_covers(size: int, covers: list[tuple[int, int]]) -> list[int]:
    """Reflexive-transitive closure as bitset rows, built in topological order.

    Kahn's sort orders the elements from the covers alone, with self-loops
    ignored and a repeated cover counted each time; it never assumes that
    the ids are a linear extension. Each row is then its own bit or the
    rows of its upper covers, taken top down, so the work is O(N + E) row
    ORs. Elements the sort cannot place lie on a cycle or above one, and
    only paths among them can close a cycle: the first mutual pair in
    row-major order of their reachability is named.
    """
    uppers: list[list[int]] = [[] for _ in range(size)]
    indegree = [0] * size
    for low, high in covers:
        if low != high:
            uppers[low].append(high)
            indegree[high] += 1
    order = [i for i in range(size) if not indegree[i]]
    for low in order:  # grows as it is read: an element joins when its last lower cover is out
        for high in uppers[low]:
            indegree[high] -= 1
            if not indegree[high]:
                order.append(high)
    stuck = [i for i in range(size) if indegree[i]]
    if stuck:
        reach = {}
        for i in stuck:
            seen, stack = 1 << i, [i]
            while stack:
                for high in uppers[stack.pop()]:
                    if not seen >> high & 1:
                        seen |= 1 << high
                        stack.append(high)
            reach[i] = seen
        for i in stuck:
            for j in stuck:
                if j != i and reach[i] >> j & 1 and reach[j] >> i & 1:
                    raise ValueError(f"cycle through elements {i} and {j}")
    matrix = [0] * size
    for low in reversed(order):
        row = 1 << low
        for high in uppers[low]:
            row |= matrix[high]
        matrix[low] = row
    return matrix


def oracle_is_linear(matrix: list[int], bottom: int, top: int) -> tuple[bool, int]:
    """Chain test over the dense relation matrix; also returns the length.

    This is the literal per-pair definition: list the interval's members,
    then require every two of them to be comparable. `oracle_census` is
    tested against it.
    """
    members = [z for z in range(len(matrix)) if matrix[bottom] >> z & 1 and matrix[z] >> top & 1]
    for a in members:
        for b in members:
            if not (matrix[a] >> b & 1 or matrix[b] >> a & 1):
                return False, len(members) - 1
    return True, len(members) - 1


def oracle_census(matrix: list[int]) -> tuple[int, ...]:
    """Linear interval counts by length, scanning the comparable pairs.

    The column masks `below[j]` (the bits i with i <= j) are built once.
    The members of [b, t] are then `matrix[b] & below[t]`, and the interval
    is a chain when each member's comparability mask `matrix[z] | below[z]`
    holds all of them. When [b, t] is not a chain, the tops above t are
    dropped from b's scan: their intervals contain [b, t] and its
    incomparable pair. The cost is O(N² + Σ k) bit operations, where k is
    the size of each interval tested.
    """
    below = [0] * len(matrix)
    for low, row in enumerate(matrix):
        bit_low = 1 << low
        while row:
            bit_high = row & -row
            below[bit_high.bit_length() - 1] |= bit_low
            row ^= bit_high
    comparable = [up | down for up, down in zip(matrix, below)]
    counts: list[int] = []
    for row in matrix:
        tops = row
        while tops:
            bit_top = tops & -tops
            tops ^= bit_top
            top = bit_top.bit_length() - 1
            members = row & below[top]
            rest = members
            while rest:
                bit_z = rest & -rest
                if comparable[bit_z.bit_length() - 1] & members != members:
                    tops &= ~matrix[top]  # [b, t'] for t <= t' holds [b, t], so it fails too
                    break
                rest ^= bit_z
            else:
                length = members.bit_count() - 1
                while len(counts) <= length:
                    counts.append(0)
                counts[length] += 1
    return tuple(counts)


def oracle_meet(matrix: list[int], a: int, b: int) -> int | None:
    candidates = [z for z in range(len(matrix)) if matrix[z] >> a & 1 and matrix[z] >> b & 1]
    for z in candidates:
        if all(matrix[w] >> z & 1 for w in candidates):
            return z
    return None


def oracle_join(matrix: list[int], a: int, b: int) -> int | None:
    candidates = [z for z in range(len(matrix)) if matrix[a] >> z & 1 and matrix[b] >> z & 1]
    for z in candidates:
        if all(matrix[z] >> w & 1 for w in candidates):
            return z
    return None


def dyck_marked_counts(nu_word: str, length: int) -> tuple[int, int]:
    """Marked-path counts matching the valley-flip lattice's interval families.

    Left marks are north steps immediately preceded by at least `length`
    east steps; right marks are east steps immediately followed by at
    least `length` north steps.
    """
    if length < 1:
        raise ValueError("marking length must be >= 1")
    left = right = 0
    east_run = EAST * length
    north_run = NORTH * length
    for word in enumerate_words_above(nu_word):
        for i, ch in enumerate(word):
            if ch == NORTH and word[max(0, i - length) : i] == east_run and i >= length:
                left += 1
            if ch == EAST and word[i + 1 : i + 1 + length] == north_run:
                right += 1
    return left, right


# -- path-shape detectors for classification cross-checks ----------------


def dyck_left_form(bottom: str, top: str, length: int) -> bool:
    """Does some E^length N in `bottom` rewrite to N E^length giving `top`?"""
    pattern = EAST * length + NORTH
    replacement = NORTH + EAST * length
    for i in range(len(bottom) - length):
        if bottom[i : i + length + 1] == pattern:
            if bottom[:i] + replacement + bottom[i + length + 1 :] == top:
                return True
    return False


def dyck_right_form(bottom: str, top: str, length: int) -> bool:
    """Does some E N^length in `bottom` rewrite to N^length E giving `top`?"""
    pattern = EAST + NORTH * length
    replacement = NORTH * length + EAST
    for i in range(len(bottom) - length):
        if bottom[i : i + length + 1] == pattern:
            if bottom[:i] + replacement + bottom[i + length + 1 :] == top:
                return True
    return False


def _excursion_end(word: str, start: int, increments: tuple[int, ...]) -> int | None:
    """End index (exclusive) of the excursion of the north step at `start`."""
    seen = word[:start].count(NORTH)
    elevation = 0
    for j in range(start, len(word)):
        if word[j] == NORTH:
            elevation += increments[seen]
            seen += 1
        else:
            elevation -= 1
        if elevation == 0:
            return j + 1
    return None


def rotation_left_form(bottom: str, top: str, length: int, increments: tuple[int, ...]) -> bool:
    """Bottom A E^k B C with B an excursion, rewritten to A B E^k C."""
    k = length
    for i in range(len(bottom) - k):
        if bottom[i : i + k] != EAST * k or bottom[i + k] != NORTH:
            continue
        end = _excursion_end(bottom, i + k, increments)
        if end is None:
            continue
        candidate = bottom[:i] + bottom[i + k : end] + EAST * k + bottom[end:]
        if candidate == top:
            return True
    return False


def rotation_right_form(bottom: str, top: str, length: int, increments: tuple[int, ...]) -> bool:
    """Bottom A E B_1..B_k C with consecutive excursions, rewritten to A B_1..B_k E C."""
    k = length
    for i in range(len(bottom) - 1):
        if bottom[i] != EAST or bottom[i + 1] != NORTH:
            continue
        pos = i + 1
        ok = True
        for _ in range(k):
            if pos >= len(bottom) or bottom[pos] != NORTH:
                ok = False
                break
            end = _excursion_end(bottom, pos, increments)
            if end is None:
                ok = False
                break
            pos = end
        if not ok:
            continue
        candidate = bottom[:i] + bottom[i + 1 : pos] + EAST + bottom[pos:]
        if candidate == top:
            return True
    return False
