"""The three workloads: seeded inputs, the closed loop that runs them, and
the output checks.

Inputs are plain data made from the seed alone; :meth:`prepare` turns them
into library objects before the clock starts, so the timed region holds
only the calls into the library and the speed probe that ``meter`` runs
between items (the worker takes the probe's time out).  Every check uses
:mod:`reference`, never the code under test, except that the extremal
checks read the image list back through ``theta_images`` (outside the
timed region) to have something to bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from inspect import isfunction

import reference as ref

# Every cell is a (k, partner parity, r, r', sgn convention) tuple.  A
# table depends on k and the partner parity only through its kind (first or
# second), so cells fall into four (kind, convention) classes with the same
# table shape.  What a table costs is set mostly by min(r, r') (the sum runs
# over l <= min(r, r')).  The position of an (r, r') stratum fixes its
# class, and the seed picks k and the partner parity within the class, so
# every seed asks for the same work on distinct cells.
FIRST_KIND = [(1, 0), (1, 1), (3, 0), (3, 1), (0, 0)]
SECOND_KIND = [(2, 0), (2, 1), (0, 1)]
CLASSES = [
    (FIRST_KIND, "coxeter_sign"),
    (SECOND_KIND, "coxeter_sign"),
    (FIRST_KIND, "sign_changes"),
    (SECOND_KIND, "sign_changes"),
]


def _strata(lo: int, his: tuple) -> list:
    """(lo, hi) strata, every other one with r and r' swapped."""
    return [(lo, hi) if j % 2 == 0 else (hi, lo) for j, hi in enumerate(his)]


# tables: one omega table per item, every cell distinct, so the omega cache
# never hits.  The median item falls inside the min = 7 group and the p94
# item inside the min = 11 group, away from the edges between groups.
TABLE_STRATA = (
    _strata(4, (4, 5, 7, 8, 9, 10, 11, 12, 13))
    + _strata(5, (5, 6, 8, 9, 10, 11, 13))
    + _strata(6, (6, 7, 8, 9, 10, 11, 12, 13))
    + _strata(7, (7, 8, 9, 10, 11, 12, 13, 7, 8, 9, 10, 11))
    + _strata(8, (8, 9, 10, 11, 12, 13, 9, 11))
    + _strata(9, (9, 10, 11, 12, 13))
    + _strata(10, (10, 11, 12, 13))
    + _strata(11, (11, 12, 13, 11, 12))
    + [(12, 12)]
)
TINY_TABLE_STRATA = [(2, 2), (2, 3), (3, 3), (3, 4)]

# queries: a small pool of contexts (r, r', weight) read by a stream of
# single-label requests.  Weights are fixed per context, so the skew is the
# same for every seed.  r > r' on two contexts, so empty images occur.  The
# six costliest first touches (the four (10, 10) contexts are one per class)
# are close in cost, and the p99 request falls among them.
QUERY_CONTEXTS = [
    (8, 8, 14), (7, 7, 10), (9, 7, 8), (8, 6, 6), (7, 9, 5), (9, 9, 4),
    (10, 10, 3), (10, 10, 2), (10, 10, 2), (10, 10, 1), (11, 10, 1), (10, 11, 1),
]
TINY_QUERY_CONTEXTS = [(3, 3, 3), (4, 2, 2), (2, 4, 1)]
QUERY_KINDS = {"theta": 220, "extremal": 80, "omega_full": 40, "cli_theta": 40, "cli_extremal": 20}
TINY_QUERY_KINDS = {"theta": 8, "extremal": 4, "omega_full": 3, "cli_theta": 3, "cli_extremal": 2}


def _deal_cells(rng, strata) -> list:
    """One distinct cell per (r, r') stratum, in the class its position
    fixes, with k and the partner parity drawn from the seed."""
    cells = []
    for i, (r, r_prime) in enumerate(strata):
        pairs, convention = CLASSES[i % len(CLASSES)]
        free = [(k, p) for k, p in pairs if (k, p, r, r_prime, convention) not in cells]
        k, parity_p = rng.choice(free)
        cells.append((k, parity_p, r, r_prime, convention))
    return cells


def _label_text(p) -> str:
    return ",".join(map(str, p)) or "-"


def _apportion(weights: list, total: int) -> list:
    """Integer counts proportional to weights, summing to total."""
    raw = [w * total / sum(weights) for w in weights]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


class Library:
    """The modules under test, looked up by attribute at every call so that
    the tracer's wrappers take effect."""

    def __init__(self):
        import howecorr.cli
        import howecorr.lusztig
        import howecorr.partitions
        import howecorr.unipotent
        import howecorr.verify

        self.cli = howecorr.cli
        self.lusztig = howecorr.lusztig
        self.partitions = howecorr.partitions
        self.unipotent = howecorr.unipotent
        self.verify = howecorr.verify

    def contexts(self, cell):
        k, parity_p, r, r_prime, _ = cell
        u = self.unipotent
        k_prime = ref.partner_index(k, parity_p)
        return (
            u.TowerContext(ref.witt_index(k) + r, ref.triangular(k) % 2),
            u.TowerContext(ref.witt_index(k_prime) + r_prime, parity_p),
        )

    def series_label(self, k, label):
        p = self.partitions
        return self.unipotent.SeriesLabel(k, p.Bipartition(p.Partition(label[0]), p.Partition(label[1])))


class Outcome:
    """What one item returned, for the checks after the loop."""

    __slots__ = ("kind", "spec", "seconds", "output", "error")

    def __init__(self, kind, spec, seconds, output, error):
        self.kind, self.spec, self.seconds = kind, spec, seconds
        self.output, self.error = output, error


class Checker:
    """Table checks memoised per table object (the reference is held, so
    the id cannot be reused), since many items read the same table."""

    def __init__(self):
        self._tables = {}

    def table(self, table, cell):
        hit = self._tables.get(id(table))
        if hit is None:
            hit = (table, _check_table(table, cell), _table_bytes(table))
            self._tables[id(table)] = hit
        return hit[1], hit[2]


def _check_table(table, cell):
    k, parity_p, r, r_prime, convention = cell
    k_prime = ref.partner_index(k, parity_p)
    if table.k_prime != k_prime:
        return f"k'={table.k_prime}, expected {k_prime}"
    if table.convention != convention:
        return f"convention {table.convention}, asked for {convention}"
    formula = "first-kind" if ref.first_kind(k, k_prime) else "second-kind"
    if table.formula != formula:
        return f"formula {table.formula}, expected {formula}"
    if tuple(table.row_labels) != ref.bipartitions(r):
        return "row labels are not the bipartitions of r in canonical order"
    if tuple(table.col_labels) != ref.bipartitions(r_prime):
        return "column labels are not the bipartitions of r' in canonical order"
    degree = 0
    for (row, col), mult in table.entries.items():
        if not isinstance(mult, int) or mult < 1:
            return f"entry {row}, {col} has multiplicity {mult!r}"
        degree += mult * ref.bipartition_degree(row) * ref.bipartition_degree(col)
    want = ref.degree_sum(r, r_prime)
    if degree != want:
        return f"degree identity fails: {degree} != {want}"
    return None


def _table_bytes(table) -> bytes:
    return json.dumps(table.to_json_dict(), sort_keys=True, separators=(",", ":")).encode()


def _check_images(images, cell, label):
    """An image list of (k', (alpha, beta), multiplicity) against the sharp
    row law."""
    k, parity_p, r, r_prime, convention = cell
    k_prime = ref.partner_index(k, parity_p)
    expect = ref.row_nonempty(label, r, r_prime, ref.first_kind(k, k_prime), convention)
    if bool(images) != expect:
        return f"image of {label} is {'non' if images else ''}empty, sharp law says {'non' if expect else ''}empty"
    seen = set()
    for image_k, bp, mult in images:
        if image_k != k_prime or sum(map(sum, bp)) != r_prime:
            return f"image {bp} is not a k'={k_prime} label of size {r_prime}"
        if not isinstance(mult, int) or mult < 1 or bp in seen:
            return f"image {bp} has multiplicity {mult!r} or repeats"
        seen.add(bp)
    return None


def _plain(series) -> tuple:
    """A library SeriesLabel's bipartition as a pair of tuples."""
    return tuple(series.char_label[0]), tuple(series.char_label[1])


def _check_bounds(lo, hi, labels):
    """lo and hi are images and bound every image in dominance order."""
    if lo not in labels or hi not in labels:
        return f"extremes {lo}, {hi} are not among the images"
    for y in labels:
        if not (ref.dominance_leq(lo, y) and ref.dominance_leq(y, hi)):
            return f"{y} is not between the extremes {lo} and {hi}"
    return None


class Tables:
    name = "tables"

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(f"tables:{seed}")
        self.cells = _deal_cells(rng, TINY_TABLE_STRATA if tiny else TABLE_STRATA)
        # One order for every seed: the item that first touches a cached
        # partition list, or that a full collection of the growing heap
        # lands on, is then the same stratum on every seed.
        random.Random("tables:order").shuffle(self.cells)

    def prepare(self, lib):
        out = []
        for cell in self.cells:
            ctx, ctx_p = lib.contexts(cell)
            call = (lambda c=ctx, cp=ctx_p, k=cell[0], conv=cell[4]:
                    lib.unipotent.omega_unipotent(c, cp, k, convention=conv))
            out.append(("table", cell, call))
        return out

    def run(self, lib, prepared, record, tracer, meter):
        _loop(prepared, record, tracer, meter)

    def check(self, lib, checker, outcome):
        return checker.table(outcome.output, outcome.spec)


def _loop(prepared, record, tracer, meter):
    clock = time.perf_counter
    for kind, spec, call in prepared:
        with tracer.item(kind) if tracer else contextlib.nullcontext():
            start = clock()
            try:
                output, error = call(), None
            except Exception as err:  # counted as a failed item
                output, error = None, err
            seconds = clock() - start
        record(kind, spec, seconds, output, error)
        meter.after(seconds)


class Queries:
    name = "queries"

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(f"queries:{seed}")
        contexts = TINY_QUERY_CONTEXTS if tiny else QUERY_CONTEXTS
        cells = _deal_cells(rng, [(r, r_prime) for r, r_prime, _ in contexts])
        pool = [(cell, weight) for cell, (_, _, weight) in zip(cells, contexts)]
        kinds = TINY_QUERY_KINDS if tiny else QUERY_KINDS
        total = sum(kinds.values())
        contexts = [
            cell
            for (cell, _), n in zip(pool, _apportion([w for _, w in pool], total))
            for _ in range(n)
        ]
        kind_list = [kind for kind, n in kinds.items() for _ in range(n)]
        # One sequence of (context position, kind) for every seed, as in
        # Tables; the seed draws the cells, labels and cuspidal pairs.
        order = random.Random("queries:order")
        order.shuffle(contexts)
        order.shuffle(kind_list)
        self.requests = [self._request(rng, kind, cell) for kind, cell in zip(kind_list, contexts)]

    @staticmethod
    def _request(rng, kind, cell):
        k, parity_p, r, r_prime, convention = cell
        labels = ref.bipartitions(r)
        if kind in ("extremal", "cli_extremal"):
            first = ref.first_kind(k, ref.partner_index(k, parity_p))
            labels = [b for b in labels if ref.row_nonempty(b, r, r_prime, first, convention)]
        if kind != "omega_full":
            return kind, (cell, rng.choice(labels))
        q = rng.choice((3, 5))
        modulus = q * q - 1
        orbits = {}
        for _ in range(rng.randint(1, 2)):
            e = rng.randrange(1, modulus)
            orbit = set()
            while e not in orbit:
                orbit.add(e)
                e = -q * e % modulus
            orbits[min(orbit)] = (len(orbit), rng.randint(1, 2))
        carried = sum(size * mult for size, mult in orbits.values())
        gl = [(1, "rho")] if carried >= 2 and rng.random() < 0.5 else []
        return kind, (cell, q, tuple(sorted(orbits.items())), tuple(gl))

    def prepare(self, lib):
        out = []
        for kind, spec in self.requests:
            cell = spec[0]
            k, parity_p, _, _, convention = cell
            ctx, ctx_p = lib.contexts(cell)
            if kind == "omega_full":
                pair, ctx, ctx_p = self._pair(lib, spec)
                call = (lambda p=pair, c=ctx, cp=ctx_p, conv=convention:
                        lib.lusztig.omega_full(p, c, cp, convention=conv))
            elif kind.startswith("cli_"):
                argv = [
                    kind[4:], "--m", str(ctx.witt_index), "--mp", str(ctx_p.witt_index),
                    "--k", str(k), "--parity", str(ctx.dim_parity),
                    "--parity-p", str(parity_p), "--convention", convention,
                    "--alpha", _label_text(spec[1][0]), "--beta", _label_text(spec[1][1]),
                    "--json",
                ]
                call = lambda argv=argv: _run_cli(lib.cli, argv)
            else:
                fn = kind + "_images"
                pi = lib.series_label(k, spec[1])
                call = (lambda fn=fn, pi=pi, c=ctx, cp=ctx_p, conv=convention:
                        getattr(lib.unipotent, fn)(pi, c, cp, convention=conv))
            out.append((kind, spec, call))
        return out

    @staticmethod
    def _pair(lib, spec):
        """A cuspidal pair whose reduced contexts are the pool cell: the
        eigenvalue-1 block has b-rank r, the partner dimension is chosen so
        that the partner block has b-rank r'."""
        (k, parity_p, r, r_prime, _), q, orbits, gl = spec
        lz = lib.lusztig
        modulus = q * q - 1
        descriptor_orbits = [lz.orbit_closure(q, modulus, e, mult) for e, (_, mult) in orbits]
        nu1 = 2 * r + ref.triangular(k)
        descriptor_orbits.append(lz.orbit_closure(q, modulus, 0, nu1))
        s = lz.SemisimpleDescriptor(q, modulus, tuple(descriptor_orbits))
        gl_part = (lz.TRIVIAL_GL,) * r + tuple(lz.GLCuspidal(size, label) for size, label in gl)
        pair = lz.CuspidalPair(gl_part, k, s)
        carried = sum(size * mult for _, (size, mult) in orbits)
        n = nu1 + carried
        n_prime = ref.triangular(ref.partner_index(k, parity_p)) + 2 * r_prime + carried
        u = lib.unipotent
        return pair, u.TowerContext(n // 2, n % 2, q), u.TowerContext(n_prime // 2, n_prime % 2, q)

    def run(self, lib, prepared, record, tracer, meter):
        _loop(prepared, record, tracer, meter)

    def check(self, lib, checker, outcome):
        check = getattr(self, "_check_" + outcome.kind)
        return check(lib, checker, outcome.spec, outcome.output)

    @staticmethod
    def _images_of(lib, cell, label):
        ctx, ctx_p = lib.contexts(cell)
        images = lib.unipotent.theta_images(lib.series_label(cell[0], label), ctx, ctx_p, convention=cell[4])
        return [_plain(s) for s, _ in images]

    def _check_theta(self, lib, checker, spec, images):
        cell, label = spec
        plain = [(s.k, _plain(s), m) for s, m in images]
        return _check_images(plain, cell, label), json.dumps(plain).encode()

    def _check_extremal(self, lib, checker, spec, output):
        cell, label = spec
        lo, hi = (_plain(s) for s in output)
        k_prime = ref.partner_index(cell[0], cell[1])
        error = _check_bounds(lo, hi, self._images_of(lib, cell, label))
        if error is None and {s.k for s in output} != {k_prime}:
            error = f"extremes are not k'={k_prime} labels"
        return error, json.dumps([[s.k, _plain(s)] for s in output]).encode()

    def _check_omega_full(self, lib, checker, spec, full):
        (k, parity_p, r, r_prime, _), _, orbits, _ = spec
        error, table_bytes = checker.table(full.unipotent_table, spec[0])
        carried = sum(size * mult for _, (size, mult) in orbits)
        n = 2 * r + ref.triangular(k) + carried
        k_prime = ref.partner_index(k, parity_p)
        n_prime = ref.triangular(k_prime) + 2 * r_prime + carried
        want_l = (n // 2 - ref.witt_index(k) - r, n_prime // 2 - ref.witt_index(k_prime) - r_prime)
        factors = sorted(
            ("unitary" if size % 2 else "linear", mult, size) for _, (size, mult) in orbits
        )
        got = sorted((f.kind, f.size, f.field_degree) for f in full.hash_descriptor)
        if error is None and (full.l, full.l_prime) != want_l:
            error = f"drops l, l' = {full.l}, {full.l_prime}, expected {want_l}"
        if error is None and got != factors:
            error = f"factors away from eigenvalue 1 are {got}, expected {factors}"
        head = {key: v for key, v in full.to_json_dict().items() if key != "unipotent_table"}
        return error, json.dumps(head, sort_keys=True).encode() + table_bytes

    def _check_cli_theta(self, lib, checker, spec, output):
        code, text = output
        cell, label = spec
        if code != 0:
            return f"exit code {code}", text.encode()
        payload = json.loads(text)
        images = [
            (i["k"], (tuple(i["alpha"]), tuple(i["beta"])), i["multiplicity"])
            for i in payload["images"]
        ]
        error = _check_images(images, cell, label)
        if error is None and payload["zero"] != (not images):
            error = "zero flag disagrees with the image list"
        return error, text.encode()

    def _check_cli_extremal(self, lib, checker, spec, output):
        code, text = output
        cell, label = spec
        if code != 0:
            return f"exit code {code}", text.encode()
        payload = json.loads(text)
        if payload["zero"]:
            return "zero image for a label the sharp law says is nonempty", text.encode()
        lo, hi = ((tuple(payload[e]["alpha"]), tuple(payload[e]["beta"])) for e in ("min", "max"))
        return _check_bounds(lo, hi, self._images_of(lib, cell, label)), text.encode()


def _run_cli(cli, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class Certify:
    """verify.run_verification(max_rank=6, seed), then check_omega(4) in
    both conventions, in one fresh process.  Each check call is an item."""

    name = "certify"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.max_rank, self.omega_rank = (2, 2) if tiny else (6, 4)

    def prepare(self, lib):
        return []

    def run(self, lib, prepared, record, tracer, meter):
        verify = lib.verify
        clock = time.perf_counter
        checks = {a: f for a, f in vars(verify).items() if a.startswith("check_") and isfunction(f)}
        recorded = []

        def timed(name, fn):
            def call(*args, **kwargs):
                with tracer.item(name) if tracer else contextlib.nullcontext():
                    start = clock()
                    try:
                        result, error = fn(*args, **kwargs), None
                    except Exception as err:
                        result, error = None, err
                    seconds = clock() - start
                record(name, None, seconds, result, error)
                meter.after(seconds)
                if error is not None:
                    recorded.append(error)
                    raise error
                return result
            return call

        for name, fn in checks.items():
            setattr(verify, name, timed(name, fn))
        try:
            for call in (
                lambda: verify.run_verification(max_rank=self.max_rank, seed=self.seed),
                lambda: verify.check_omega(self.omega_rank, convention="coxeter_sign"),
                lambda: verify.check_omega(self.omega_rank, convention="sign_changes"),
            ):
                try:
                    call()
                except Exception as err:
                    if err not in recorded:  # raised outside any check
                        record("run_verification", None, 0.0, None, err)
        finally:
            for name, fn in checks.items():
                setattr(verify, name, fn)

    def check(self, lib, checker, outcome):
        r = outcome.output
        error = None if r.passed else f"{r.name}: {r.detail}"
        return error, f"{r.name}|{r.passed}|{r.detail}".encode()


WORKLOADS = {w.name: w for w in (Tables, Queries, Certify)}
