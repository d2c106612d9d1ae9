"""Seeded workloads of the seqcm benchmark.

Each workload is a fixed list of items; an item is one call of a public
entry point: a ``seqcm`` command run in-process, or, for ``saturation``,
which has no command, the library function.  ``build`` makes the inputs
from the workload seed with the benchmark's own code, so a change to the
package never changes what it is given, and it attaches to the items cheap
second-route checks of their outputs.

Why these three workloads: each layer a ROADMAP item will optimise does most
of the work in one workload and almost none in another.

- corpus-verify: ``verify`` over the corpus at two seeds.  Gin
  (Buchberger) is about nine tenths of the time and exact rank almost none,
  so a groebner speed-up shows here; many small items also touch every
  other layer thinly (CLI, window comparison, both cohomology routes, the
  gin memo).
- facering: the closed formula beside Cech, and Hochster beside Koszul, on
  face rings of complexes.  No gin at all and exact rank is the largest
  share, so groebner changes must leave it flat.
- ideals: non-monomial ideals.  The only workload with ``saturation``, the
  Groebner-normal-form Koszul route and the disk gin cache (one write, then
  one read, per ideal), and the one where the Fraction ``Polynomial`` path
  (coordinate changes, normal forms) does the largest share of the work.
  Each gin is computed once more at another seed and must come out the
  same; besides checking the output, that keeps item_p50_s steady: without
  it half the items are cheap (cache reads, memo-served checks, Hilbert
  functions) and the median falls in the gap between the cheap items and
  the rest, where the seed moves it by a fifth.
"""

import itertools
import json
import os
import random

HILBERT_WINDOW = (0, 6)
CORPUS_SEED_STEP = 1000003   # second corpus pass runs at seed + this
GIN_RESEED_STEP = 1000033    # ideals: the gin is computed again at seed + this


class Plan:
    """Input files, items and output checks of one workload run."""

    def __init__(self, work):
        self.work = work
        self.files = {}
        self.items = []    # (item id, argv) or (item id, ("saturation", path, seed))
        self.checks = []   # (item id, check(outputs) -> failure text or None)

    def file(self, name, data):
        path = os.path.join(self.work, name + ".json")
        self.files[path] = data
        return path

    def cli(self, item_id, *argv):
        self.items.append((item_id, [str(a) for a in argv]))

    def saturation(self, item_id, path, seed):
        self.items.append((item_id, ("saturation", path, int(seed))))

    def check(self, item_id, fn):
        self.checks.append((item_id, fn))

    def write(self):
        os.makedirs(self.work, exist_ok=True)
        for path, data in self.files.items():
            with open(path, "w") as fh:
                json.dump(data, fh, sort_keys=True)
                fh.write("\n")


def build(workload, seed, work, corpus_dir):
    """The plan of one workload; equal seeds give equal plans."""
    rng = random.Random("%s:%d" % (workload, seed))
    plan = Plan(work)
    BUILDERS[workload](plan, rng, int(seed), corpus_dir)
    return plan


# -- complexes and ideals, made without the package ---------------------------

def cycle(n):
    return {"n": n, "facets": sorted(sorted((i, i % n + 1)) for i in range(1, n + 1))}


def cross_polytope(k):
    """Boundary of the k-dimensional cross-polytope on 2k vertices."""
    return {"n": 2 * k,
            "facets": [[2 * i + 1 + b for i, b in enumerate(bits)]
                       for bits in itertools.product((0, 1), repeat=k)]}


def random_complex(rng, n, facets, sizes):
    """Distinct random facets on n vertices, none inside another."""
    chosen = []
    while len(chosen) < facets:
        f = frozenset(rng.sample(range(1, n + 1), rng.choice(sizes)))
        if not any(f <= g or g <= f for g in chosen):
            chosen.append(f)
    return {"n": n, "facets": sorted(sorted(f) for f in chosen)}


def faces(facets):
    out = {()}
    for f in facets:
        for k in range(1, len(f) + 1):
            out.update(itertools.combinations(sorted(f), k))
    return out


def face_ideal(cx):
    """Stanley-Reisner ideal file: the minimal nonfaces as monomials."""
    n, have = cx["n"], faces(cx["facets"])
    minimal = []
    for k in range(1, n + 1):
        for s in itertools.combinations(range(1, n + 1), k):
            if s not in have and not any(set(m) <= set(s) for m in minimal):
                minimal.append(s)
    return {"n": n, "generators": ["*".join("x%d" % v for v in m) for m in minimal]}


def random_form(rng, n, degree, terms):
    """A homogeneous form with distinct monomials and small nonzero coefficients."""
    monomials = set()
    while len(monomials) < terms:
        e = [0] * n
        for _ in range(degree):
            e[rng.randrange(n)] += 1
        monomials.add(tuple(e))
    text = ""
    for e in sorted(monomials, reverse=True):
        c = rng.choice((1, -1, 2, -2, 3, -3))
        mono = "*".join("x%d" % (i + 1) + ("^%d" % k if k > 1 else "")
                        for i, k in enumerate(e) if k)
        sign = ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += sign + ("" if abs(c) == 1 else "%d*" % abs(c)) + mono
    return text


def standard_monomials(n, generators, d):
    """Number of degree-d monomials outside a monomial ideal (its Hilbert function)."""
    gens = [_exponents(n, g) for g in generators]
    count = 0
    for combo in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        if not any(all(a <= b for a, b in zip(g, e)) for g in gens):
            count += 1
    return count


def _exponents(n, text):
    e = [0] * n
    if text != "1":
        for factor in text.split("*"):
            var, _, power = factor.partition("^")
            e[int(var[1:]) - 1] += int(power or 1)
    return e


# -- checks -------------------------------------------------------------------

def _json(outputs, item_id):
    return json.loads(outputs[item_id])


def empty_cech_diff(item_id):
    def check(outputs):
        if _json(outputs, item_id)["cech_diff"]:
            return "closed formula and Cech route differ"
    return check


def same_betti(hochster_id, koszul_id):
    def check(outputs):
        if (_json(outputs, hochster_id)["betti"]
                != _json(outputs, koszul_id)["betti"]):
            return "Hochster and Koszul Betti tables differ"
    return check


def same_stdout(first_id, second_id):
    def check(outputs):
        if outputs[first_id] != outputs[second_id]:
            return "cache read printed other stdout than the cache write"
    return check


def same_gin(first_id, second_id):
    def check(outputs):
        if _json(outputs, first_id)["gin"] != _json(outputs, second_id)["gin"]:
            return "gin differs between two seeds"
    return check


def gin_hilbert_matches(gin_id, hilbert_id, n):
    def check(outputs):
        gens = _json(outputs, gin_id)["gin"]["generators"]
        lo, hi = HILBERT_WINDOW
        expected = ["%d\t%d" % (d, standard_monomials(n, gens, d))
                    for d in range(lo, hi + 1)]
        if outputs[hilbert_id].split("\n")[:-1] != expected:
            return "gin and initial ideal have different Hilbert functions"
    return check


# -- workloads ----------------------------------------------------------------

def corpus_verify(plan, rng, seed, corpus_dir):
    # The corpus is verified as in `seqcm verify corpus corpus/ --seed N`, at
    # the workload seed and again at a seed derived from it.  The gin seed
    # sets the cost of every item, so the second pass averages that cost
    # over two seeds; item ids of the first pass carry no suffix.
    entries = []
    for f in sorted(os.listdir(corpus_dir)):
        if not f.endswith(".json"):
            continue
        with open(os.path.join(corpus_dir, f)) as fh:
            data = json.load(fh)
        entries.append((f[:-5], plan.file("corpus-" + f[:-5], data),
                        "thm41" if "facets" in data else "main-theorem"))
    for suffix, gin_seed in (("", seed), ("#2", seed + CORPUS_SEED_STEP)):
        for name, path, what in entries:
            plan.cli("%s:%s%s" % (what, name, suffix), "verify", what, path,
                     "--seed", gin_seed)


def facering(plan, rng, seed, corpus_dir):
    # The Koszul oracle grows about fivefold per vertex, so it runs beside
    # Hochster up to n = 7.  Hochster alone on n = 10 complexes is where exact
    # rank does most of the work; those are fixed complexes, because random
    # ones on 10 vertices vary tenfold in cost.  Random complexes have a fixed
    # number and size of facets for the same reason.
    boundary = {"n": 10, "facets": [[v for v in range(1, 11) if v != k]
                                    for k in range(1, 11)]}
    complexes = [("cycle7", cycle(7)), ("octahedron", cross_polytope(3)),
                 ("cross4", cross_polytope(4)), ("cycle10", cycle(10)),
                 ("simplex-boundary10", boundary)]
    for k in range(8):
        n = 8 if k % 4 else 7
        complexes.append(("random%d" % k, random_complex(rng, n, n - 2, (3,))))
    for name, cx in complexes:
        path = plan.file(name, cx)
        ideal = plan.file(name + "-ideal", face_ideal(cx))
        if cx["n"] <= 8:
            plan.cli("enrico:" + name, "localcoh", path, "--route", "enrico")
            plan.check("enrico:" + name, empty_cech_diff("enrico:" + name))
        plan.cli("hochster:" + name, "betti", ideal)
        if cx["n"] <= 7:
            plan.cli("koszul:" + name, "betti", ideal, "--oracle")
            plan.check("koszul:" + name,
                       same_betti("hochster:" + name, "koszul:" + name))


# (n, ideals, quadrics per ideal, betti options or None) of the ideals
# workload.  Every ideal of one n has the same number of generators and
# terms, so the cost of a run varies little with the seed.  The Koszul route
# takes 10-20 s per ideal at n = 5 on a 2-CPU host, so betti stops at n = 4.
# There it gets --bound 6: two quadrics have no syzygy beyond degree 4, so
# the whole table fits, while the default bound follows the leading
# monomials of the Groebner basis and makes the cost of one ideal jump
# between about 0.3 s and 0.9 s with the seed.
IDEALS = ((3, 3, 3, ()), (4, 8, 2, ("--bound", 6)), (5, 2, 2, None))


def ideals(plan, rng, seed, corpus_dir):
    cache = os.path.join(plan.work, "gin-cache")
    lo, hi = HILBERT_WINDOW
    for n, count, gens_per_ideal, betti in IDEALS:
        for k in range(count):
            name = "ideal%d-%d" % (n, k)
            gens = [random_form(rng, n, 2, 3) for _ in range(gens_per_ideal)]
            path = plan.file(name, {"n": n, "generators": gens})
            plan.cli("gin-write:" + name, "gin", path, "--seed", seed,
                     "--cache-dir", cache)
            plan.cli("gin-read:" + name, "gin", path, "--seed", seed,
                     "--cache-dir", cache)
            plan.check("gin-read:" + name,
                       same_stdout("gin-write:" + name, "gin-read:" + name))
            plan.cli("gin-reseed:" + name, "gin", path, "--seed",
                     seed + GIN_RESEED_STEP)
            plan.check("gin-reseed:" + name,
                       same_gin("gin-write:" + name, "gin-reseed:" + name))
            plan.cli("main-theorem:" + name, "verify", "main-theorem", path,
                     "--seed", seed)
            plan.cli("hilbert:" + name, "hilbert", path,
                     "--window", "%d..%d" % (lo, hi), "--format", "tsv")
            plan.check("hilbert:" + name,
                       gin_hilbert_matches("gin-write:" + name, "hilbert:" + name, n))
            if betti is not None:
                plan.cli("betti:" + name, "betti", path, *betti)
            plan.saturation("saturation:" + name, path, seed)


BUILDERS = {
    "corpus-verify": corpus_verify,
    "facering": facering,
    "ideals": ideals,
}
