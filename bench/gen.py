"""Seeded benchmark inputs whose answers are known by construction.

Nothing here imports matident.  Group arithmetic, chain walks, swap
variants and monomial-identity answers are computed with this module's own
code, so an expected answer never comes from the engine under test.

Identities are zero-sum combinations of words that carry every letter at
the same prefix degree: such words have equal generic evaluations, so each
zero-sum class evaluates to zero.  Variants come from swapping blocks of a
word between cut points whose prefix degrees coincide, which keeps each
letter's prefix degree (and so its row on every chain).
Non-identities add one word in fresh variables on a row walk that survives
from its start row.

Every workload is built as rounds with the same composition, so that any
run covering whole rounds measures the same mix of query sizes whatever the
seed; the seed only changes the content.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import deque

# ---------------------------------------------------------------------------
# groups


class Cyclic:
    def __init__(self, n: int):
        self.n = n
        self.e = 0

    def op(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return -a % self.n

    def fmt(self, a) -> str:
        return str(a)

    def doc(self) -> dict:
        return {"type": "cyclic", "order": self.n}

    def __str__(self) -> str:
        return f"Z{self.n}"


class Integers:
    e = 0

    def op(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def fmt(self, a) -> str:
        return str(a)

    def doc(self) -> dict:
        return {"type": "integers"}

    def __str__(self) -> str:
        return "Z"


class Product:
    def __init__(self, factors):
        self.factors = tuple(factors)
        self.e = tuple(f.e for f in self.factors)

    def op(self, a, b):
        return tuple(f.op(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def fmt(self, a) -> str:
        return "(" + ",".join(f.fmt(x) for f, x in zip(self.factors, a)) + ")"

    def doc(self) -> dict:
        return {"type": "product", "factors": [f.doc() for f in self.factors]}

    def __str__(self) -> str:
        return "x".join(str(f) for f in self.factors)


class Cayley:
    """Finite group by labels and table; elements are label indices."""

    def __init__(self, names, table):
        self.names = list(names)
        self.table = [list(row) for row in table]
        size = len(self.names)
        self.e = next(x for x in range(size) if all(self.table[x][y] == y for y in range(size)))

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return next(b for b in range(len(self.names)) if self.table[a][b] == self.e)

    def fmt(self, a) -> str:
        return self.names[a]

    def doc(self) -> dict:
        return {"type": "cayley", "names": self.names, "table": self.table}

    def __str__(self) -> str:
        return f"cayley({','.join(self.names)})"


def symmetric3() -> Cayley:
    perms = list(itertools.permutations(range(3)))

    def compose(p, q):  # q first, then p
        return tuple(p[q[i]] for i in range(3))

    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    return Cayley(["e", "t01", "t12", "c1", "c2", "t02"], table)


# ---------------------------------------------------------------------------
# gradings


class Grading:
    def __init__(self, group, entries):
        self.group = group
        self.entries = tuple(entries)
        self.n = len(self.entries)
        self.row_of: dict = {}
        for i, g in enumerate(self.entries, start=1):
            self.row_of.setdefault(g, i)
        self.moves: dict = {}

    def doc(self) -> dict:
        return {
            "group": self.group.doc(),
            "n": self.n,
            "tuple": [self.group.fmt(g) for g in self.entries],
        }

    def unit_degree(self, i: int, j: int):
        G = self.group
        return G.op(G.inv(self.entries[i - 1]), self.entries[j - 1])

    def support(self) -> list:
        rows = range(1, self.n + 1)
        return sorted({self.unit_degree(i, j) for i in rows for j in rows})

    def step(self, row: int, h):
        return self.row_of.get(self.group.op(self.entries[row - 1], h))

    def advance(self, state: frozenset, h) -> frozenset:
        key = (state, h)
        if key not in self.moves:
            self.moves[key] = frozenset(
                nxt for nxt in (self.step(row, h) for row in state) if nxt is not None
            )
        return self.moves[key]

    def all_rows(self) -> frozenset:
        return frozenset(range(1, self.n + 1))

    def kills(self, hseq) -> bool:
        """True when no unit chain survives the degree sequence."""
        state = self.all_rows()
        for h in hseq:
            state = self.advance(state, h)
            if not state:
                return True
        return False


# ---------------------------------------------------------------------------
# words and polynomials; a word is a tuple of (degree, index) letters


class Indices:
    """Hands out variable indices that no earlier word has used."""

    def __init__(self):
        self.next = 1

    def take(self) -> int:
        self.next += 1
        return self.next - 1


def walk_word(grading: Grading, length: int, start: int, rows, rng, indices: Indices,
              end=None):
    """Letters of a row walk from `start` (to `end` when given), each a
    fresh variable."""
    letters = []
    pos = start
    for step in range(length):
        nxt = end if end is not None and step == length - 1 else rng.choice(rows)
        letters.append((grading.unit_degree(pos, nxt), indices.take()))
        pos = nxt
    return tuple(letters)


def prefix_degrees(group, word) -> list:
    out = [group.e]
    for h, _ in word:
        out.append(group.op(out[-1], h))
    return out


def swap_once(group, word, rng, tries: int = 20):
    """One random swap that keeps every letter's prefix degree, or None.

    neutral: p|u|v|q -> p|v|u|q with prefix degrees equal at all three cuts;
    conjugate: p|u|t|v|q -> p|v|t|u|q with equal prefix degrees at the
    first and third cut and at the second and fourth.
    """
    pre = prefix_degrees(group, word)
    at: dict = {}
    for pos, value in enumerate(pre):
        at.setdefault(value, []).append(pos)
    pairs = [p for p in at.values() if len(p) >= 2]
    triples = [p for p in pairs if len(p) >= 3]
    for _ in range(tries):
        if triples and rng.random() < 0.5:
            i, j, k = sorted(rng.sample(rng.choice(triples), 3))
            return word[:i] + word[j:k] + word[i:j] + word[k:]
        if not pairs:
            return None
        i, k = sorted(rng.sample(rng.choice(pairs), 2))
        if k - i < 2:
            continue
        j = rng.randint(i + 1, k - 1)
        ls = [l for l in at[pre[j]] if l > k]
        if ls:
            l = rng.choice(ls)
            return word[:i] + word[k:l] + word[j:k] + word[i:j] + word[l:]
    return None


def variants(group, word, want: int, rng) -> list:
    """Up to `want` distinct words with the same evaluation as `word`.

    A random walk of swaps collects candidates; they are then taken in turn
    from groups with different first letters, so that a class spreads over
    the term order instead of clustering around its base word.
    """
    seen = {word}
    cur = word
    for _ in range(want * 8):
        cur = swap_once(group, cur, rng) or cur
        seen.add(cur)
    groups: dict = {}
    for w in sorted(seen - {word}):
        groups.setdefault(w[0], []).append(w)
    buckets = list(groups.values())
    rng.shuffle(buckets)
    for bucket in buckets:
        rng.shuffle(bucket)
    found = [word]
    while len(found) < want and any(buckets):
        for bucket in buckets:
            if bucket and len(found) < want:
                found.append(bucket.pop())
    return found


def zero_sum(count: int, rng) -> list:
    """`count` nonzero small integers summing to zero (count >= 2)."""
    while True:
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(count - 1)]
        last = -sum(coeffs)
        if last != 0:
            return coeffs + [last]


def word_text(group, word) -> str:
    return "*".join(f"x[{group.fmt(h)};{i}]" for h, i in word)


def poly_text(group, terms) -> str:
    """Terms (coefficient, word) in the engine's textual syntax."""
    chunks = []
    for c, word in terms:
        body = word_text(group, word)
        piece = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not chunks:
            chunks.append(f"-{piece}" if c < 0 else piece)
        else:
            chunks.append(f"- {piece}" if c < 0 else f"+ {piece}")
    return " ".join(chunks)


def add_class(terms: dict, words, rng) -> None:
    for c, w in zip(zero_sum(len(words), rng), words):
        terms[w] = terms.get(w, 0) + c
        if terms[w] == 0:
            del terms[w]


def chain_entries(grading: Grading, word, coeff: int) -> dict:
    """Expected `eval --json` entries of one word in distinct fresh variables."""
    G = grading.group
    out = {}
    for k in range(1, grading.n + 1):
        rows = [k]
        for h, _ in word:
            nxt = grading.step(rows[-1], h)
            if nxt is None:
                break
            rows.append(nxt)
        else:
            ys = sorted((h, i, row) for (h, i), row in zip(word, rows))
            body = "*".join(f"y[{G.fmt(h)};{i};{row}]" for h, i, row in ys)
            out[f"({k},{rows[-1]})"] = body if coeff == 1 else f"{coeff}*{body}"
    return out


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# monomial identities, computed independently of the engine


def own_enumerate(grading: Grading, max_len: int) -> list:
    """Identity degree sequences whose proper prefixes are not identities."""
    alphabet = grading.support()
    memo: dict = {}

    def tails(state, remaining):
        key = (state, remaining)
        if key not in memo:
            out = []
            for h in alphabet:
                nxt = grading.advance(state, h)
                if not nxt:
                    out.append((h,))
                elif remaining > 1:
                    out.extend((h,) + t for t in tails(nxt, remaining - 1))
            memo[key] = out
        return memo[key]

    return tails(grading.all_rows(), max_len)


def own_is_minimal(grading: Grading, seq, support: set) -> bool:
    """Minimality of an enumerated sequence (all proper prefixes live).

    A proper factor that is an identity makes seq[1:] one too, so (a) is a
    single test.  (b): no coarsening into a shorter identity inside the
    support.
    """
    q = len(seq)
    if q > 1 and grading.kills(seq[1:]):
        return False
    G = grading.group
    for mask in range(2 ** (q - 1) - 1):
        merged = [seq[0]]
        for i in range(1, q):
            if mask >> (i - 1) & 1:
                merged.append(seq[i])
            else:
                merged[-1] = G.op(merged[-1], seq[i])
        if all(h in support for h in merged) and grading.kills(merged):
            return False
    return True


def own_shortest(grading: Grading):
    start = grading.all_rows()
    seen = {start}
    queue = deque([(start, 0)])
    alphabet = grading.support()
    while queue:
        state, depth = queue.popleft()
        for h in alphabet:
            nxt = grading.advance(state, h)
            if not nxt:
                return depth + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    return None


# ---------------------------------------------------------------------------
# workloads: each returns a Plan


class Plan:
    """Input files, rounds of queries, expected answers and warm-up ids."""

    def __init__(self):
        self.files: dict = {}        # name -> text
        self.gradings: list = []     # grading file names loaded by setup
        self.rounds: list = []       # [[query, ...], ...]
        self.expect: dict = {}       # query id -> expected answer
        self.warmup: list = []       # argv lists run once before timing

    def grading_file(self, name: str, grading: Grading, setup: bool = True) -> str:
        self.files[name] = json.dumps(grading.doc())
        if setup:
            self.gradings.append(name)
        return name

    def query(self, rnd: list, qid: str, argv: list, expect: dict, **extra) -> None:
        q = {"id": qid, "argv": argv, **extra}
        rnd.append(q)
        self.expect[qid] = dict(expect, cmd=argv[0], probe=extra.get("probe"))


TAMPERS = ("drop_pairing", "perturb_split", "perturb_coefficient", "missing_key")


def certify_plan(seed: int, rounds: int) -> Plan:
    """Membership certification and certificate checking.

    Per round: 21 Z4 identities with the term count T on a fixed ladder
    (mostly small, a few large to set the tail), one S3 and one Z2xZ2
    identity, two mixed inputs with a non-identity component (the witness
    path), a check-cert of every bundle, and one tampered bundle of each
    kind.  25 certify + 25 check-cert + 5 tampered = 55 queries.
    """
    rng = random.Random(seed)
    plan = Plan()
    z4 = Grading(Cyclic(4), (0, 1, 2, 3))
    s3 = symmetric3()
    gs3 = Grading(s3, tuple(range(6)))
    v4 = Grading(Product([Cyclic(2), Cyclic(2)]), ((0, 0), (0, 1), (1, 0), (1, 1)))
    files = {
        "z4": plan.grading_file("z4.json", z4),
        "s3": plan.grading_file("s3.json", gs3),
        "v4": plan.grading_file("v4.json", v4),
    }
    gradings = {"z4": z4, "s3": gs3, "v4": v4}
    # (grading, [(word length, classes, variants per class) per component], mixed)
    ladder = [("z4", [(10, 3, 6)], False)] * 6 + [
        ("z4", [(10, 2, 6), (10, 2, 6)], False),
        ("z4", [(12, 4, 8)], False),
        ("z4", [(12, 5, 8)], False),
        ("z4", [(12, 6, 8)], False),
        ("z4", [(12, 8, 10)], False),
        ("z4", [(12, 10, 10)], False),
        ("z4", [(14, 14, 10)], False),
        ("z4", [(14, 20, 10)], False),
        ("s3", [(8, 3, 6)], False),
        ("v4", [(10, 3, 6)], False),
        ("z4", [(10, 2, 6)] * 2, True),
        ("s3", [(8, 2, 6)], True),
    ]
    ladder = ladder + [("z4", [(10, 3, 6)], False)] * (25 - len(ladder))
    for r in range(rounds):
        rnd: list = []
        certs = []
        order = list(range(len(ladder)))
        rng.shuffle(order)
        for slot in order:
            gname, comps, mixed = ladder[slot]
            grading = gradings[gname]
            G = grading.group
            indices = Indices()
            terms: dict = {}
            for q, classes, per_class in comps:
                letters = walk_word(grading, q, rng.randint(1, grading.n),
                                    list(range(1, grading.n + 1)), rng, indices)
                for _ in range(classes):
                    words = []
                    while len(words) < 2:
                        words = variants(G, tuple(rng.sample(letters, q)), per_class, rng)
                    add_class(terms, words, rng)
            flags = [True] * len(comps)
            if mixed:
                fresh = walk_word(grading, rng.randint(3, 6), rng.randint(1, grading.n),
                                  list(range(1, grading.n + 1)), rng, indices)
                terms[fresh] = rng.choice((1, 2, -1))
                flags.append(False)
            items = list(terms.items())
            rng.shuffle(items)
            qid = f"c{r}.{slot}"
            pfile = f"{qid}.txt"
            plan.files[pfile] = poly_text(G, [(c, w) for w, c in items])
            identity = not mixed
            plan.query(rnd, qid, ["certify", files[gname], pfile, "--json", "--strict"],
                       {"exit": 0 if identity else 1, "identity": identity,
                        "components": sorted(flags)}, size=len(terms), grading=gname)
            cid = f"{qid}.check"
            plan.query(rnd, cid,
                       ["check-cert", files[gname], f"{cid}.json", "--json", "--strict"],
                       {"exit": 0 if identity else 1, "valid": identity}, bundle_of=qid)
            certs.append((qid, files[gname], mixed))
        # one tampered bundle per kind, each from a bundle that supports it
        plain = [c for c in certs if not c[2] and c[1] == files["z4"]]
        for kind in TAMPERS:
            add_tamper(plan, rnd, rng.choice(plain), kind)
        add_tamper(plan, rnd, rng.choice([c for c in certs if c[2]]), "duplicate_component")
        plan.rounds.append(rnd)
        if r == 0:
            small = min((q for q in rnd if "size" in q), key=lambda q: q["size"])
            plan.warmup.append(small["argv"])
    return plan


def add_tamper(plan: Plan, rnd: list, src, kind: str) -> None:
    qid, gfile, _ = src
    tid = f"{qid}.{kind}"
    plan.query(rnd, tid, ["check-cert", gfile, f"{tid}.json", "--json", "--strict"],
               {"reject": True}, bundle_of=qid, tamper=kind, probe=kind)


def decide_plan(seed: int, rounds: int) -> Plan:
    """Identity decision and generic evaluation on large n and long words.

    Per round: 34 queries on a fixed ladder of (grading, terms, word
    length, command, field), half identities and half not, plus one `eval`
    on a repeated-entry tuple whose correct answer is exit 2: 35 queries.
    """
    rng = random.Random(seed)
    plan = Plan()
    z64 = Grading(Cyclic(64), tuple(range(64)))
    z8z8 = Grading(Product([Cyclic(8), Cyclic(8)]),
                   tuple((a, b) for a in range(8) for b in range(8)))
    sparse = Grading(Integers(), sorted(rng.sample(range(-4000, 4000), 32)))
    repeated = Grading(Cyclic(8), (0, 0, 1, 3, 3, 6))
    gradings = {"z64": z64, "z8z8": z8z8, "sparse": sparse}
    files = {name: plan.grading_file(f"{name}.json", g) for name, g in gradings.items()}
    rep_file = plan.grading_file("repeated.json", repeated)
    # (grading, terms, word length)
    shapes = [
        ("z64", 10, 16), ("z64", 10, 24), ("z64", 16, 16), ("z64", 20, 32),
        ("z64", 30, 16), ("z64", 40, 24),
        ("z8z8", 10, 16), ("z8z8", 12, 24), ("z8z8", 16, 16), ("z8z8", 24, 32),
        ("z8z8", 40, 16),
        ("sparse", 10, 16), ("sparse", 20, 32), ("sparse", 30, 48), ("sparse", 40, 64),
        ("sparse", 24, 24), ("sparse", 16, 64),
    ]
    # every shape with and without an identity; command and field fixed per slot
    slots = []
    for k, (shape, identity) in enumerate((s, i) for s in shapes for i in (True, False)):
        cmd = ("is-identity", "eval")[k // 2 % 2]
        field = ("rationals", "fp:10007")[(k + k // 2) % 2]
        slots.append((shape, identity, cmd, field))
    for r in range(rounds):
        rnd: list = []
        order = list(range(len(slots)))
        rng.shuffle(order)
        for k in order:
            (gname, nterms, q), identity, cmd, field = slots[k]
            grading = gradings[gname]
            G = grading.group
            indices = Indices()
            terms: dict = {}
            target = nterms if identity else nterms - 1
            # closed walks: every word has neutral degree, so all terms land
            # on the diagonal and the accumulation cost depends on the shape only
            while len(terms) < target - 1:
                active = rng.sample(range(1, grading.n + 1), 5)
                base = walk_word(grading, q, active[0], active, rng, indices, end=active[0])
                words = variants(G, base, min(4, target - len(terms)), rng)
                if len(words) >= 2:
                    add_class(terms, words, rng)
            items = [(c, w) for w, c in terms.items()]
            expect_entries: dict = {}
            if not identity:
                active = rng.sample(range(1, grading.n + 1), 5)
                fresh = walk_word(grading, q, active[0], active, rng, indices, end=active[0])
                coeff = rng.choice((1, 2, 3))
                items.append((coeff, fresh))
                expect_entries = chain_entries(grading, fresh, coeff)
            rng.shuffle(items)
            qid = f"d{r}.{k}"
            pfile = f"{qid}.txt"
            plan.files[pfile] = poly_text(G, items)
            if cmd == "is-identity":
                plan.query(rnd, qid, ["is-identity", files[gname], pfile, "--field", field,
                                      "--json", "--strict"],
                           {"exit": 0 if identity else 1, "identity": identity, "field": field})
            else:
                plan.query(rnd, qid, ["eval", files[gname], pfile, "--field", field, "--json"],
                           {"exit": 0, "zero": identity, "field": field,
                            "entries": digest(expect_entries)})
        # repeated tuple entries: evaluation is refused (exit 2)
        indices = Indices()
        word = walk_word(repeated, 6, 3, [3, 4, 6], rng, indices)
        qid = f"d{r}.repeated"
        plan.files[f"{qid}.txt"] = poly_text(repeated.group, [(1, word)])
        plan.query(rnd, qid, ["eval", rep_file, f"{qid}.txt", "--json"], {"exit": 2},
                   probe="eval_repeated_tuple")
        plan.rounds.append(rnd)
    plan.warmup = [q["argv"] for q in plan.rounds[0] if q["argv"][1] == files["sparse"]][:2]
    return plan


def monomial_families(rng):
    """The partial-support grading families, each moved by a seeded
    automorphism, translation and reordering of its tuple; these keep the
    automaton's shape, so costs and answer sizes stay the same."""
    out = []
    sign = rng.choice((1, -1))
    shift = rng.randint(-50, 50)
    out.append(("int", Integers(), [sign * x + shift for x in (0, 1, 3, 9, 20)], 4))
    for name, n, base, cap in (("z8", 8, (0, 1, 3, 7), 5), ("z12", 12, (0, 1, 4, 6, 11), 4),
                               ("z10", 10, (0, 1, 3, 7), 5)):
        unit = rng.choice([u for u in range(1, n) if _gcd(u, n) == 1])
        shift = rng.randrange(n)
        out.append((name, Cyclic(n), [(unit * x + shift) % n for x in base], cap))
    while True:
        m = [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det % 2:
            break
    shift = tuple(rng.randint(0, 1) for _ in range(3))
    base = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    entries = [tuple((sum(m[i][j] * v[j] for j in range(3)) + shift[i]) % 2 for i in range(3))
               for v in base]
    out.append(("z2c", Product([Cyclic(2)] * 3), entries, 4))
    for fam in out:
        rng.shuffle(fam[2])
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def unit_product(a, b):
    """E_a * E_b as a matrix unit, or None when it is zero."""
    return (a[0], b[1]) if a[1] == b[0] else None


def translation_class(grading: Grading) -> tuple:
    """The tuple's value set up to translation: enumeration answers depend
    on nothing else."""
    G = grading.group
    return min(
        tuple(sorted(G.op(G.inv(g0), g) for g in grading.entries)) for g0 in grading.entries
    )


def monomials_plan(seed: int, rounds: int) -> Plan:
    """Automaton, enumeration and the minimality filter.

    Per round and family (5 families): shortest-identity, info or bounds
    (alternating by round), enumerate-monomials at the cap L, and with
    --minimal at L-1 and L: 25 queries.  Without the cheap enumerations at
    L-1 the median falls among the larger enumerations, whose costs form a
    continuous range instead of two clusters with a gap.
    """
    rng = random.Random(seed)
    plan = Plan()
    answers: dict = {}
    for r in range(rounds):
        rnd: list = []
        for f, (name, group, entries, cap) in enumerate(monomial_families(rng)):
            grading = Grading(group, entries)
            gfile = plan.grading_file(f"m{r}.{name}.json", grading, setup=r == 0)
            fmt = group.fmt
            support = grading.support()
            s, n = len(support), grading.n
            bounds = {"support_bound": 4 * s ** (2 * s + 2),
                      "size_bound": 4 * n ** (4 * (n * n + 1))}
            qid = f"m{r}.{name}"
            dims = {fmt(h): sum(1 for i in range(1, n + 1) for j in range(1, n + 1)
                                if grading.unit_degree(i, j) == h) for h in support}
            neutral = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                       if grading.unit_degree(i, j) == group.e]
            sizes = sorted((entries.count(g) for g in set(entries)), reverse=True)
            info = {"payload": {
                "group": str(group), "n": n, "tuple": [fmt(g) for g in entries],
                "support": [fmt(h) for h in support], "component_dimensions": dims,
                "neutral_report": {
                    "distinct_entries": len(set(entries)) == n,
                    "neutral_is_diagonal": all(i == j for i, j in neutral),
                    "neutral_commutes": all(unit_product(a, b) == unit_product(b, a)
                                            for a in neutral for b in neutral),
                },
                "neutral_blocks": {"sizes": sizes, "dimension": sum(m * m for m in sizes)},
            }}
            if (f + r) % 2:
                plan.query(rnd, f"{qid}.info", ["info", gfile, "--json"], info)
            else:
                plan.query(rnd, f"{qid}.bounds", ["bounds", gfile, "--json"],
                           {"payload": dict(bounds, support_size=s)})
            length = own_shortest(grading)
            plan.query(rnd, f"{qid}.shortest", ["shortest-identity", gfile, "--json", "--strict"],
                       {"exit": 0 if length else 1, "length": length, "grading": grading})
            for L in (cap - 1, cap):
                key = (name, L, translation_class(grading))
                if key not in answers:
                    unfiltered = own_enumerate(grading, L)
                    minimal = [sq for sq in unfiltered if own_is_minimal(grading, sq, set(support))]
                    answers[key] = unfiltered, minimal
                unfiltered, minimal = answers[key]
                unf_text = [[fmt(h) for h in sq] for sq in unfiltered]
                for flag, found in ((False, unfiltered), (True, minimal)):
                    if L < cap and not flag:
                        continue
                    argv = ["enumerate-monomials", gfile, "--max-len", str(L), "--json"]
                    if flag:
                        argv.append("--minimal")
                    plan.query(rnd, f"{qid}.L{L}{'m' if flag else ''}", argv, dict(
                        bounds, max_len=L, minimal=flag, count=len(found),
                        unfiltered_count=len(unfiltered),
                        sequences=digest([[fmt(h) for h in sq] for sq in found]),
                        unfiltered_sequences=digest(unf_text)))
        rng.shuffle(rnd)
        plan.rounds.append(rnd)
    plan.warmup = [q["argv"] for q in plan.rounds[0] if q["argv"][0] in ("info", "bounds")][:2]
    return plan


PLANS = {"certify": certify_plan, "decide": decide_plan, "monomials": monomials_plan}
