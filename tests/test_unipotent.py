import copy
import dataclasses
import gc
import inspect
import json
import pickle
import random
import tracemalloc
from itertools import chain, product, starmap
from math import comb, factorial, isqrt, prod
from operator import le

import pytest
import reference_pieri
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from howecorr import partitions, unipotent
from howecorr.errors import EmptyImageError, NonUniqueExtremeError
from howecorr.hyperoctahedral import _classes, build_character_table
from howecorr.lusztig import (
    TRIVIAL_GL,
    CentralizerFactor,
    CuspidalPair,
    CuspidalSupport,
    EigenvalueOrbit,
    GenericCuspidal,
    GLCuspidal,
    OmegaFullDecomposition,
    SemisimpleDescriptor,
    UnipotentCuspidal,
    orbit_closure,
)
from howecorr.partitions import (
    Bipartition,
    Partition,
    bipartition,
    bipartition_dominance_leq,
    bipartitions_of,
)
from howecorr.unipotent import (
    SGN_CONVENTIONS,
    MultiplicityTable,
    SeriesLabel,
    TowerContext,
    _image_extremes,
    _omega_cached,
    extremal_images,
    is_first_kind,
    is_odd_prime_power,
    omega_unipotent,
    pieri_induction,
    theta_cuspidal,
    theta_images,
    triangular,
    witt_index_of_cuspidal,
)
from howecorr.verify import CheckResult, _oracle_omega, _series_context

TRIV1 = bipartition((1,), ())
SGN1 = bipartition((), (1,))
EMPTY = bipartition((), ())


class TestCuspidalBookkeeping:
    def test_witt_index_values(self):
        assert [witt_index_of_cuspidal(k) for k in range(5)] == [0, 0, 1, 3, 5]

    def test_theta_pinned(self):
        assert theta_cuspidal(0, 0) == 0
        assert theta_cuspidal(0, 1) == 1
        assert theta_cuspidal(2, 1) == 1
        assert theta_cuspidal(2, 0) == 3

    def test_theta_output_parity(self):
        for k in range(7):
            for parity in (0, 1):
                k_prime = theta_cuspidal(k, parity)
                assert triangular(k_prime) % 2 == parity
                if k >= 1:
                    assert k_prime in (k - 1, k + 1)

    def test_theta_parity_is_read_as_an_int(self):
        assert type(theta_cuspidal(0, True)) is int and theta_cuspidal(0, True) == 1
        assert type(theta_cuspidal(0, False)) is int and theta_cuspidal(0, False) == 0
        for parity in (1.0, "1", None):
            with pytest.raises(ValueError, match=f"^parity must be an integer, got {parity!r}$"):
                theta_cuspidal(0, parity)

    def test_theta_matches_the_candidate_rule(self):
        # the rule as it was first written: the one of k - 1, k + 1 whose
        # triangular number has the target parity
        def want(k, parity):
            if k == 0:
                return parity
            (kp,) = [kp for kp in (k - 1, k + 1) if triangular(kp) % 2 == parity]
            return kp

        for k in range(65):
            for parity in (0, 1):
                assert theta_cuspidal(k, parity) == want(k, parity), (k, parity)

    def test_theta_round_trip(self):
        for k in range(1, 7):
            for parity in (0, 1):
                k_prime = theta_cuspidal(k, parity)
                assert theta_cuspidal(k_prime, triangular(k) % 2) == k

    def test_odd_prime_powers_against_factorisation(self):
        # a factorisation by the primes below 2^12, which divide every
        # composite q below 2^24: every q below 5000, a seeded sample of odd
        # q below the bound and the last 64 q below it
        primes = [p for p in range(2, 1 << 12) if all(p % d for d in range(2, isqrt(p) + 1))]

        def want(q):
            if q < 2:
                return False
            base = next((p for p in primes if q % p == 0), q)
            while q % base == 0:
                q //= base
            return q == 1 and base != 2

        rng = random.Random(38)
        sample = [2 * rng.randrange(1 << 23) + 1 for _ in range(2000)]
        for q in chain(range(5000), sample, range(2**24 - 64, 2**24)):
            assert is_odd_prime_power(q) is want(q), q
        assert {9, 27, 25, 2187, 4913} <= set(filter(is_odd_prime_power, range(5000)))

    @pytest.mark.parametrize(
        "q, want",
        [
            (2**61 - 1, ValueError),  # a prime past the bound
            ((2**31 - 1) ** 2, ValueError),  # the square of one
            (257**5, ValueError),  # a base past 2^8, the old trial division limit
            (561, False),  # a Carmichael number
            (3215031751, ValueError),  # a strong pseudoprime to bases 2, 3, 5, 7
            (3825123056546413051, ValueError),  # strong pseudoprimes with no
            (318665857834031151167461, ValueError),  # factor below 2^8
            (1000003 * (2**61 - 1), ValueError),  # two primes past the bound
            (2**24 - 3, True),  # the largest prime below the bound
            (4093**2, True),  # the square of the largest prime below 2^12
            (4091 * 4093, False),  # two primes below 2^12
            (257**2, True),  # the smallest base past the old limit
        ],
    )
    def test_odd_prime_powers_past_trial_division(self, q, want):
        if want is ValueError:
            with pytest.raises(ValueError, match=f"^q = {q} is too large: field sizes must be"):
                is_odd_prime_power(q)
        else:
            assert is_odd_prime_power(q) is want

    def test_prime_power_test_is_bounded(self):
        # every q from the bound on is refused, prime power or not
        bound = unipotent.FIELD_SIZE_BOUND
        assert bound == 2**24
        for q in (bound, bound + 1, 3**60, 3 * bound, 2**61 - 1):
            with pytest.raises(
                ValueError,
                match=f"^q = {q} is too large: field sizes must be below 2\\^24 = 16777216$",
            ):
                is_odd_prime_power(q)
        # below it, every answer is exact
        assert is_odd_prime_power(3**15)
        assert not is_odd_prime_power(3 * 5**9)
        with pytest.raises(ValueError, match="^q = 16777216 is too large"):
            TowerContext(1, 0, q=bound)

    def test_tower_context_validation(self):
        with pytest.raises(ValueError):
            TowerContext(-1, 0)
        with pytest.raises(ValueError):
            TowerContext(1, 2)
        with pytest.raises(ValueError):
            TowerContext(1, 0, q=4)
        assert TowerContext(2, 1).dimension == 5
        # read by operator.index: a bool is an integer, a float or a string is not
        assert TowerContext(True, False, 3).dimension == 2
        bad = [((1.5, 0), "Witt index", 1.5), (("1", 0), "Witt index", "1"),
               ((2, 0.0), "dimension parity", 0.0), ((1, 0, 3.0), "q", 3.0)]
        for args, name, value in bad:
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
                TowerContext(*args)

    # A bool or a numpy int hashes and compares equal to its int, so a
    # context that kept it would also reach the omega cache keys.  Each of
    # the next three tests clears that cache so that its own call fills it.

    def test_bool_witt_index_renders_as_an_int(self):
        unipotent._omega_cached.cache_clear()
        table = omega_unipotent(TowerContext(True, 0), TowerContext(1, 0), 0)
        assert json.dumps(table.to_json_dict()).startswith('{"m": 1, "m_prime": 1,')

    def test_numpy_witt_index_renders_as_an_int(self):
        numpy = pytest.importorskip("numpy")
        unipotent._omega_cached.cache_clear()
        ctx = TowerContext(numpy.int64(2), numpy.int64(0), numpy.int64(3))
        assert [type(v) for v in (ctx.witt_index, ctx.dim_parity, ctx.q)] == [int] * 3
        table = omega_unipotent(ctx, TowerContext(1, 0), 0)
        want = omega_unipotent(TowerContext(2, 0), TowerContext(1, 0), 0).to_json_dict()
        assert json.dumps(table.to_json_dict()) == json.dumps(want)

    def test_bool_context_leaves_no_bool_table_in_the_cache(self):
        unipotent._omega_cached.cache_clear()
        omega_unipotent(TowerContext(True, 0), TowerContext(True, 0), 0)
        table = omega_unipotent(TowerContext(1, 0), TowerContext(1, 0), 0)
        assert (type(table.m), type(table.m_prime)) == (int, int)

    # The series index k reaches the same cache key, so it is read by
    # operator.index before the key is formed.

    def test_bool_series_index_leaves_no_bool_table_in_the_cache(self):
        unipotent._omega_cached.cache_clear()
        ctx, ctx_prime = TowerContext(1, 1), TowerContext(1, 0)
        omega_unipotent(ctx, ctx_prime, True)
        table = omega_unipotent(ctx, ctx_prime, 1)
        assert type(table.k) is int
        assert json.dumps(table.to_json_dict()).startswith('{"m": 1, "m_prime": 1, "k": 1,')

    def test_numpy_series_index_renders_as_an_int(self):
        numpy = pytest.importorskip("numpy")
        unipotent._omega_cached.cache_clear()
        ctx, ctx_prime = TowerContext(1, 1), TowerContext(1, 0)
        omega_unipotent(ctx, ctx_prime, numpy.int64(1))
        table = omega_unipotent(ctx, ctx_prime, 1)
        assert type(table.k) is int
        json.dumps(table.to_json_dict())
        images = theta_images(SeriesLabel(numpy.int64(1), TRIV1), ctx, ctx_prime)
        assert images and all(type(label.k) is int for label, _ in images)

    def test_fractional_series_index_is_refused(self):
        ctx, ctx_prime = TowerContext(1, 1), TowerContext(1, 0)
        calls = [
            lambda: omega_unipotent(ctx, ctx_prime, 1.5),
            lambda: theta_images(SeriesLabel(1.5, TRIV1), ctx, ctx_prime),
            lambda: theta_cuspidal(1.5, 0),
            lambda: witt_index_of_cuspidal(1.5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^k must be an integer, got 1.5$"):
                call()


# pickle, copy and deepcopy: each must give back an equal record
ROUND_TRIPS = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestRecords:
    """``TowerContext`` and ``MultiplicityTable`` are slotted records that
    behave as the frozen dataclasses they once were: the same signatures,
    value equality and hashing, the dataclass ``repr``, fields that cannot
    be assigned, and pickle and copy round trips."""

    # the first-kind table of U_2 x U_2 at k = 0, r = r' = 1
    SMALL = (TowerContext(1, 0), TowerContext(1, 0), 0)
    SMALL_REPR = (
        "MultiplicityTable(m=1, m_prime=1, k=0, k_prime=0, convention='coxeter_sign', "
        "entries={(Bipartition(alpha=(1,), beta=()), Bipartition(alpha=(1,), beta=())): 1, "
        "(Bipartition(alpha=(1,), beta=()), Bipartition(alpha=(), beta=(1,))): 1, "
        "(Bipartition(alpha=(), beta=(1,)), Bipartition(alpha=(1,), beta=())): 1})"
    )

    @staticmethod
    def _fields(table) -> dict:
        return {
            "m": table.m, "m_prime": table.m_prime, "k": table.k, "k_prime": table.k_prime,
            "convention": table.convention, "entries": table.entries,
        }

    def test_context_signature(self):
        ctx = TowerContext(3, 1)
        assert ctx.q is None
        assert ctx == TowerContext(witt_index=3, dim_parity=1) == TowerContext(3, 1, None)
        assert TowerContext(3, 1, 5) == TowerContext(3, dim_parity=1, q=5)
        assert (ctx.witt_index, ctx.dim_parity, ctx.dimension) == (3, 1, 7)
        for args, kwargs in [((3,), {}), ((3, 1, 5, 7), {}), ((3, 1), {"p": 5})]:
            with pytest.raises(TypeError):
                TowerContext(*args, **kwargs)

    def test_context_equality_and_hash(self):
        a, b = TowerContext(2, 0, 3), TowerContext(2, 0, q=3)
        assert a == b and not a != b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, TowerContext(2, 0), TowerContext(2, 1, 3)}) == 3
        assert a != TowerContext(2, 0) and a != TowerContext(2, 1, 3)
        # no equality with a tuple of the same values, as for a dataclass
        assert a != (2, 0, 3)
        assert a.__eq__((2, 0, 3)) is NotImplemented

    def test_context_repr(self):
        assert repr(TowerContext(3, 1)) == "TowerContext(witt_index=3, dim_parity=1, q=None)"
        assert repr(TowerContext(True, 0, 9)) == "TowerContext(witt_index=1, dim_parity=0, q=9)"

    @pytest.mark.parametrize("name", ["witt_index", "dim_parity", "q", "other"])
    def test_context_fields_cannot_be_assigned(self, name):
        ctx = TowerContext(3, 1)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(ctx, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(ctx, name)
        assert ctx == TowerContext(3, 1)
        assert not hasattr(ctx, "__dict__")

    def test_table_signature(self):
        table = omega_unipotent(*self.SMALL)
        fields = self._fields(table)
        by_keyword = MultiplicityTable(**fields)
        by_position = MultiplicityTable(*fields.values())
        assert by_keyword == by_position == table
        assert by_keyword.entries is table.entries
        with pytest.raises(TypeError):
            MultiplicityTable(*list(fields.values())[:-1])

    def test_table_equality(self):
        table = omega_unipotent(*self.SMALL)
        fields = self._fields(table)
        assert MultiplicityTable(**fields) == table and not MultiplicityTable(**fields) != table
        cells = dict(table.entries.items())
        cells[next(iter(cells))] = 2
        assert MultiplicityTable(**{**fields, "entries": cells}) != table
        assert MultiplicityTable(**{**fields, "convention": "sign_changes"}) != table

    def test_table_repr(self):
        table = omega_unipotent(*self.SMALL)
        assert repr(table) == self.SMALL_REPR
        zero = omega_unipotent(TowerContext(2, 1), TowerContext(2, 0), 2)
        assert repr(zero) == (
            "MultiplicityTable(m=2, m_prime=2, k=2, k_prime=3, convention='coxeter_sign', "
            "entries={})"
        )

    @pytest.mark.parametrize("name", ["m", "entries", "other"])
    def test_table_fields_cannot_be_assigned(self, name):
        table = omega_unipotent(*self.SMALL)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(table, name, {})
        assert repr(table) == self.SMALL_REPR

    def test_a_plain_dict_of_entries_is_converted(self):
        table = omega_unipotent(*self.SMALL)
        plain = MultiplicityTable(**{**self._fields(table), "entries": dict(table.entries.items())})
        assert isinstance(plain.entries, unipotent._Entries)
        assert plain.entries is not table.entries
        assert plain == table and repr(plain) == self.SMALL_REPR

    def test_dataclasses_functions_still_apply(self):
        """``dataclasses.fields``, ``replace`` and ``asdict`` take a record
        as they took the dataclass it was (the benchmark's smoke test
        builds a broken table with ``replace``), and ``pprint`` prints its
        ``repr``; each reads fields built on first use."""
        import dataclasses
        import pprint

        ctx = TowerContext(3, 1)
        assert dataclasses.is_dataclass(ctx)
        assert [(f.name, f.default) for f in dataclasses.fields(ctx)] == [
            ("witt_index", dataclasses.MISSING),
            ("dim_parity", dataclasses.MISSING),
            ("q", None),
        ]
        assert dataclasses.replace(ctx, q=5) == TowerContext(3, 1, 5)
        assert dataclasses.asdict(ctx) == {"witt_index": 3, "dim_parity": 1, "q": None}
        table = omega_unipotent(*self.SMALL)
        names = [f.name for f in dataclasses.fields(table)]
        assert names == list(self._fields(table))
        assert names == ["m", "m_prime", "k", "k_prime", "convention", "entries"]
        assert dataclasses.replace(table) == table
        with pytest.raises(ValueError, match="is not a label of this table"):
            dataclasses.replace(table, entries={(EMPTY, EMPTY): 1})
        assert pprint.pformat(table, width=10**4) == self.SMALL_REPR

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    def test_round_trips(self, round_trip):
        ctx = TowerContext(4, 0, 3)
        assert round_trip(ctx) == ctx and hash(round_trip(ctx)) == hash(ctx)
        for table in (
            omega_unipotent(TowerContext(3, 0), TowerContext(2, 0), 0),
            omega_unipotent(TowerContext(3, 0), TowerContext(2, 1), 0),
            omega_unipotent(TowerContext(2, 1), TowerContext(2, 0), 2),
        ):
            got = round_trip(table)
            assert type(got) is MultiplicityTable
            assert got == table and repr(got) == repr(table)
            assert got.to_json_dict() == table.to_json_dict()
            assert got.to_text() == table.to_text()


def _record_cases():
    """One case per record outside ``unipotent``: the class, the arguments
    of one instance, its repr and the class's signature as the frozen
    dataclass it replaced printed them, and the arguments of an unequal
    instance."""
    unit, minus_one = orbit_closure(3, 8, 0, 2), orbit_closure(3, 8, 4)
    unit_repr = "EigenvalueOrbit(exponents=frozenset({0}), multiplicity=2)"
    minus_one_repr = "EigenvalueOrbit(exponents=frozenset({4}), multiplicity=1)"
    descriptor_repr = (
        f"SemisimpleDescriptor(q=3, modulus=8, orbits=({unit_repr}, {minus_one_repr}))"
    )
    # the semisimple class of U_3 with eigenvalues 1, 1, -1, orbits out of order
    descriptor = SemisimpleDescriptor(3, 8, (minus_one, unit))
    rho, rho_repr = GLCuspidal(2, "rho"), "GLCuspidal(size=2, label='rho')"
    trivial_repr = "GLCuspidal(size=1, label='1')"
    table = omega_unipotent(*TestRecords.SMALL)
    cases = [
        (
            EigenvalueOrbit, (frozenset({4}), 2),
            "EigenvalueOrbit(exponents=frozenset({4}), multiplicity=2)",
            "(exponents: 'frozenset', multiplicity: 'int' = 1)",
            (frozenset({4}), 1),
        ),
        (
            SemisimpleDescriptor, (3, 8, (minus_one, unit)), descriptor_repr,
            "(q: 'int', modulus: 'int', orbits: 'tuple')",
            (3, 8, (unit,)),
        ),
        (
            CentralizerFactor, (2, 2),
            "CentralizerFactor(size=2, field_degree=2)",
            "(size: 'int', field_degree: 'int')",
            (2, 1),
        ),
        (
            GLCuspidal, (2, "rho"), rho_repr, "(size: 'int', label: 'str')", (2, "sigma"),
        ),
        (
            UnipotentCuspidal, (1,), "UnipotentCuspidal(k=1)", "(k: 'int')", (0,),
        ),
        (
            GenericCuspidal, ("c", 1, "d"),
            "GenericCuspidal(label='c', first_occurrence=1, partner_label='d')",
            "(label: 'str', first_occurrence: 'int', partner_label: 'str | None' = None)",
            ("c", 2, "d"),
        ),
        (
            CuspidalSupport, ((rho, TRIVIAL_GL), UnipotentCuspidal(0)),
            f"CuspidalSupport(entries=({trivial_repr}, {rho_repr}), "
            "phi=UnipotentCuspidal(k=0))",
            "(entries: 'tuple', phi: 'object')",
            ((rho,), UnipotentCuspidal(0)),
        ),
        (
            CuspidalPair, ((rho, TRIVIAL_GL), 0, descriptor),
            f"CuspidalPair(gl_part=({trivial_repr}, {rho_repr}), base_k=0, "
            f"semisimple={descriptor_repr})",
            "(gl_part: 'tuple', base_k: 'int', semisimple: 'SemisimpleDescriptor')",
            ((rho, TRIVIAL_GL), 1, descriptor),
        ),
        (
            OmegaFullDecomposition,
            ((CentralizerFactor(1, 1),), 1, 0, table),
            "OmegaFullDecomposition(hash_descriptor=(CentralizerFactor(size=1, "
            "field_degree=1),), l=1, l_prime=0, "
            f"unipotent_table={TestRecords.SMALL_REPR})",
            "(hash_descriptor: 'tuple', l: 'int', l_prime: 'int', "
            "unipotent_table: 'MultiplicityTable')",
            ((), 1, 0, table),
        ),
        (
            CheckResult, ("x", True, "y"), "CheckResult(name='x', passed=True, detail='y')",
            "(name: 'str', passed: 'bool', detail: 'str')",
            ("x", False, "y"),
        ),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


class TestRecordContract:
    """The records of ``lusztig`` and ``verify.CheckResult`` keep the
    contract of the frozen dataclasses they were, as ``TestRecords`` checks
    for ``TowerContext`` and ``MultiplicityTable``."""

    CASES = _record_cases()

    @staticmethod
    def _keywords(cls, args) -> dict:
        return dict(zip(inspect.signature(cls).parameters, args))

    @pytest.mark.parametrize("cls, args, text, signature, other", CASES)
    def test_signature_and_construction(self, cls, args, text, signature, other):
        sig = inspect.signature(cls)
        assert str(sig.replace(return_annotation=sig.empty)) == signature
        record, by_keyword = cls(*args), cls(**self._keywords(cls, args))
        assert by_keyword == record
        # every field, partner_label too, which equality leaves out
        assert [getattr(by_keyword, name) for name in sig.parameters] == [
            getattr(record, name) for name in sig.parameters
        ]
        with pytest.raises(TypeError):
            cls(*args, None)

    @pytest.mark.parametrize("cls, args, text, signature, other", CASES)
    def test_equality_hash_and_repr(self, cls, args, text, signature, other):
        record, twin = cls(*args), cls(*args)
        assert record == twin and not record != twin and record is not twin
        assert record != cls(*other) and not record == cls(*other)
        values = tuple(getattr(record, name) for name in inspect.signature(cls).parameters)
        assert record != values and record.__eq__(values) is NotImplemented
        assert repr(record) == text
        if cls is OmegaFullDecomposition:
            # the table's entries mapping is unhashable, and so was the dataclass
            with pytest.raises(TypeError, match="unhashable type"):
                hash(record)
        else:
            # a frozen dataclass hashes the tuple of its compared fields
            compared = values[:2] if cls is GenericCuspidal else values
            assert hash(record) == hash(twin) == hash(compared)

    def test_partner_label_takes_no_part_in_equality(self):
        named, derived = GenericCuspidal("c", 1, "d"), GenericCuspidal("c", 1)
        assert named == derived and hash(named) == hash(derived) == hash(("c", 1))
        assert derived.partner_label is None
        assert len({named, derived, GenericCuspidal("c", 2, "d")}) == 2

    @pytest.mark.parametrize("cls, args, text, signature, other", CASES)
    def test_fields_cannot_be_assigned(self, cls, args, text, signature, other):
        record = cls(*args)
        for name in [*inspect.signature(cls).parameters, "other"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert repr(record) == text
        # slotted, where the dataclass kept its fields in a __dict__
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    @pytest.mark.parametrize("cls, args, text, signature, other", CASES)
    def test_round_trips(self, cls, args, text, signature, other, round_trip):
        record = cls(*args)
        got = round_trip(record)
        assert type(got) is cls and got == record and repr(got) == text

    @pytest.mark.parametrize("cls, args, text, signature, other", CASES)
    def test_dataclasses_functions_apply(self, cls, args, text, signature, other):
        record = cls(*args)
        names = list(inspect.signature(cls).parameters)
        assert dataclasses.is_dataclass(record)
        assert [f.name for f in dataclasses.fields(record)] == names
        assert dataclasses.replace(record) == record
        changed = dataclasses.replace(record, **{names[-1]: other[-1]})
        assert changed == cls(*args[:-1], other[-1])
        assert list(dataclasses.asdict(record)) == names

    def test_asdict_recurses_into_records(self):
        support = CuspidalSupport((GLCuspidal(2, "rho"), TRIVIAL_GL), UnipotentCuspidal(0))
        assert dataclasses.asdict(support) == {
            "entries": ({"size": 1, "label": "1"}, {"size": 2, "label": "rho"}),
            "phi": {"k": 0},
        }
        assert dataclasses.astuple(CheckResult("x", True, "y")) == ("x", True, "y")


class TestPieriInduction:
    def test_trivial_second_factor(self):
        got = pieri_induction(bipartition((1,), (1,)), 2, "trivial")
        assert got == [
            bipartition((3,), (1,)),
            bipartition((2, 1), (1,)),
        ]

    def test_sgn_second_factor_conventions(self):
        bp = bipartition((1,), ())
        coxeter = pieri_induction(bp, 2, "sgn", "coxeter_sign")
        changes = pieri_induction(bp, 2, "sgn", "sign_changes")
        assert coxeter == [bipartition((1,), (1, 1))]
        assert changes == [bipartition((1,), (2,))]
        # a single box is both a horizontal and a vertical strip
        one = bipartition((1,), (1,))
        assert pieri_induction(one, 1, "sgn", "coxeter_sign") == pieri_induction(
            one, 1, "sgn", "sign_changes"
        )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pieri_induction(EMPTY, 1, "weird")
        with pytest.raises(ValueError):
            pieri_induction(EMPTY, 1, "sgn", "nope")
        for second in ("trivial", "sgn"):
            with pytest.raises(ValueError, match="^strip size must be an integer, got 1.0$"):
                pieri_induction(bipartition((1,), ()), 1.0, second)

    def test_omega_reads_the_certified_rule(self):
        # the index lists of the omega sum are pieri_induction's trivial
        # labels, and the trivial list of sgn chi read through the twist of
        # rank n is its sgn labels, so check_induction certifies what omega
        # is built from
        for n in range(7):
            labels = bipartitions_of(n)
            for l in range(n + 1):
                indices = unipotent._strip_indices(n, l)
                for chi, row in zip(bipartitions_of(l), indices):
                    got = pieri_induction(chi, n - l, "trivial")
                    assert got == [labels[i] for i in row], (chi, "trivial")
                for convention in SGN_CONVENTIONS:
                    sgn_lists = _sgn_strip_indices(n, l, convention)
                    for chi, row in zip(bipartitions_of(l), sgn_lists):
                        got = pieri_induction(chi, n - l, "sgn", convention)
                        assert got == [labels[i] for i in row], (chi, convention)

    @settings(deadline=None, max_examples=200)
    @given(
        chi=st.integers(0, 9).flatmap(lambda l: st.sampled_from(bipartitions_of(l))),
        s=st.integers(0, 5),
        second=st.sampled_from(("trivial", "sgn")),
        convention=st.sampled_from(SGN_CONVENTIONS),
    )
    def test_equals_the_frozen_reference_in_order(self, chi, s, second, convention):
        """The rule, including the sgn side read through x*, gives the
        labels of the recursive strip generators, list for list, past the
        oracle's rank."""
        got = pieri_induction(chi, s, second, convention)
        assert got == reference_pieri.pieri_induction(chi, s, second, convention)
        assert all(type(bp) is Bipartition for bp in got)
        assert all(type(p) is Partition for bp in got for p in bp)

    def test_sgn_twist_consistency(self):
        # the twist is an involution of Irr(W_n) in both conventions
        for n in range(13):
            for convention in SGN_CONVENTIONS:
                twist = unipotent._twist_permutation(n, convention)
                assert [twist[j] for j in twist] == list(range(len(twist))), (n, convention)


class TestOmegaTables:
    def test_smallest_case(self):
        table = omega_unipotent(TowerContext(0, 0), TowerContext(0, 0), 0)
        assert table.entries == {(EMPTY, EMPTY): 1}
        assert table.formula == "first-kind"

    def test_pinned_two_by_two(self):
        table = omega_unipotent(TowerContext(1, 0), TowerContext(1, 0), 0)
        assert table.entries == {
            (TRIV1, TRIV1): 1,
            (TRIV1, SGN1): 1,
            (SGN1, TRIV1): 1,
        }
        assert table.entry(SGN1, SGN1) == 0

    def test_one_zero_case(self):
        table = omega_unipotent(TowerContext(1, 0), TowerContext(0, 0), 0)
        assert table.entries == {(TRIV1, EMPTY): 1}

    def test_zero_below_first_occurrence(self):
        # theta(2, 0) = 3 first occurs at witt index 3
        table = omega_unipotent(TowerContext(2, 1), TowerContext(2, 0), 2)
        assert table.is_zero
        assert table.formula is None
        assert table.col_labels == ()
        assert table.entries == {}

    def test_formula_selection(self):
        assert omega_unipotent(TowerContext(1, 1), TowerContext(1, 0), 1).formula == (
            "first-kind"
        )
        assert omega_unipotent(TowerContext(2, 1), TowerContext(3, 0), 2).formula == (
            "second-kind"
        )
        assert omega_unipotent(TowerContext(1, 0), TowerContext(1, 1), 0).formula == (
            "second-kind"
        )

    def test_first_kind_predicate_picks_the_formula(self):
        for k in range(6):
            for parity_prime in (0, 1):
                k_prime = theta_cuspidal(k, parity_prime)
                ctx, ctx_p = _series_context(k, 1), _series_context(k_prime, 1)
                formula = omega_unipotent(ctx, ctx_p, k).formula
                assert is_first_kind(k, k_prime) == (formula == "first-kind")
        assert is_first_kind(0, 0) and not is_first_kind(0, 1)
        assert is_first_kind(3, 2) and not is_first_kind(2, 3)

    def test_tables_match_the_reference_pieri_path(self):
        """Byte-identical JSON against the unmemoised strip and Pieri code,
        zero tables below the partner's first occurrence included."""
        for convention in SGN_CONVENTIONS:
            for k in range(4):
                for parity_prime in (0, 1):
                    k_prime = theta_cuspidal(k, parity_prime)
                    m = witt_index_of_cuspidal(k)
                    for r in range(9):
                        for m_prime in range(witt_index_of_cuspidal(k_prime) + 9):
                            args = (m + r, triangular(k) % 2, m_prime, parity_prime, k)
                            got = omega_unipotent(
                                TowerContext(*args[:2]),
                                TowerContext(*args[2:4]),
                                k,
                                convention=convention,
                            )
                            want = reference_pieri.omega_table(*args, convention)
                            assert got.to_json_dict() == want.to_json_dict(), (
                                args,
                                convention,
                            )

    @seed(32)
    @settings(deadline=None, max_examples=20)
    @given(
        k_parity=st.sampled_from([(2, 0), (2, 1), (0, 1)]),
        r=st.integers(9, 12),
        r_prime=st.integers(9, 12),
        convention=st.sampled_from(SGN_CONVENTIONS),
    )
    def test_second_kind_tables_above_the_sweep_match_the_reference(
        self, k_parity, r, r_prime, convention
    ):
        """Second-kind tables at r, r' in 9..12, above the sweep of
        test_tables_match_the_reference_pieri_path and in the range of the
        benchmark's tables: the same JSON as the unmemoised Pieri path,
        which sums the sgn labels of each chi rather than the trivial lists
        through the twist permutation."""
        k, parity_prime = k_parity
        k_prime = theta_cuspidal(k, parity_prime)
        assert not is_first_kind(k, k_prime)
        args = (
            witt_index_of_cuspidal(k) + r,
            triangular(k) % 2,
            witt_index_of_cuspidal(k_prime) + r_prime,
            parity_prime,
            k,
        )
        got = omega_unipotent(
            TowerContext(*args[:2]), TowerContext(*args[2:4]), k, convention=convention
        )
        want = reference_pieri.omega_table(*args, convention)
        assert got.to_json_dict() == want.to_json_dict(), (args, convention)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            omega_unipotent(TowerContext(0, 0), TowerContext(1, 0), 2)  # m < m(k)
        with pytest.raises(ValueError):
            omega_unipotent(TowerContext(2, 0), TowerContext(1, 0), 2)  # parity

    def test_convention_changes_table(self):
        a = omega_unipotent(TowerContext(2, 0), TowerContext(2, 0), 0, convention="coxeter_sign")
        b = omega_unipotent(TowerContext(2, 0), TowerContext(2, 0), 0, convention="sign_changes")
        assert a.entries != b.entries

    def test_degree_identity_spot(self):
        table = omega_unipotent(TowerContext(2, 0), TowerContext(2, 0), 0)
        _, oracle_degree = _oracle_omega(2, 2, True, "coxeter_sign")
        t2 = build_character_table(2)
        identity = _classes(2).identity
        deg = {bp: row[identity] for bp, row in zip(t2.labels, t2.rows)}
        degree = sum(mult * deg[a] * deg[b] for (a, b), mult in table.entries.items())
        assert degree == oracle_degree

    def test_row_helpers(self):
        table = omega_unipotent(TowerContext(1, 0), TowerContext(1, 0), 0)
        assert table.row(TRIV1) == [(TRIV1, 1), (SGN1, 1)]
        with pytest.raises(ValueError):
            table.row(bipartition((2,), ()))

    def test_rows_match_a_column_scan(self):
        for k in (0, 2):  # first kind, second kind
            k_prime = theta_cuspidal(k, 0)
            assert is_first_kind(k, k_prime) == (k == 0)
            for convention in SGN_CONVENTIONS:
                for r in range(9):
                    for r_prime in range(9):
                        ctx, ctx_p = _series_context(k, r), _series_context(k_prime, r_prime)
                        table = omega_unipotent(ctx, ctx_p, k, convention=convention)
                        for bp in table.row_labels:
                            want = [
                                (col, table.entries[bp, col])
                                for col in table.col_labels
                                if (bp, col) in table.entries
                            ]
                            assert table.row(bp) == want

    def test_json_shape_and_determinism(self):
        table = omega_unipotent(TowerContext(2, 0), TowerContext(1, 0), 0)
        d = table.to_json_dict()
        assert set(d) >= {"m", "m_prime", "k", "k_prime", "row_labels", "col_labels", "entries"}
        assert json.dumps(d, sort_keys=True) == json.dumps(
            omega_unipotent(TowerContext(2, 0), TowerContext(1, 0), 0).to_json_dict(),
            sort_keys=True,
        )

    def test_text_rendering(self):
        text = omega_unipotent(TowerContext(1, 0), TowerContext(1, 0), 0).to_text()
        assert "k=0 -> k'=0" in text
        assert "1|-" in text and "-|1" in text

    @pytest.mark.parametrize("collecting", [True, False])
    def test_table_build_keeps_the_collector_state(self, collecting):
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            for parity_prime in (0, 1):  # first kind, then second kind
                table = _omega_cached.__wrapped__(5, 0, 5, parity_prime, 0, "coxeter_sign")
                # the JSON entries list is built with the collector paused
                table.to_json_dict()
                assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_caching_returns_equal_tables(self):
        a = omega_unipotent(TowerContext(2, 0), TowerContext(2, 0), 0)
        b = omega_unipotent(TowerContext(2, 0), TowerContext(2, 0), 0)
        assert a is b


def _conjugate_beta(bp: Bipartition) -> Bipartition:
    """The relabelling (alpha, beta) -> (alpha, beta*), beta* the conjugate."""
    return bipartition(bp.alpha, Partition(bp.beta).conjugate())


def _convention_pair(k: int, parity_prime: int, r: int, r_prime: int) -> tuple:
    """The omega table of ranks r, r' of the k-series against its partner in
    the tower of parity ``parity_prime``, in each convention."""
    k_prime = theta_cuspidal(k, parity_prime)
    ctx = TowerContext(witt_index_of_cuspidal(k) + r, triangular(k) % 2)
    ctx_prime = TowerContext(witt_index_of_cuspidal(k_prime) + r_prime, parity_prime)
    return tuple(
        omega_unipotent(ctx, ctx_prime, k, convention=convention)
        for convention in ("sign_changes", "coxeter_sign")
    )


def _relabelled_entries(table) -> dict:
    return {
        (_conjugate_beta(row), _conjugate_beta(col)): mult
        for (row, col), mult in table.entries.items()
    }


class TestConventionRelabelling:
    """coxeter_sign is sign_changes with every label (alpha, beta) printed
    as (alpha, beta*): a horizontal strip on beta becomes a vertical one,
    and the sgn twist (alpha, beta) -> (beta*, alpha*) of one convention is
    the other's conjugated.  Tables, rows and the Pieri rule are checked."""

    def test_tables_are_relabelled(self):
        for k, parity_prime, r, r_prime in product(range(4), (0, 1), range(9), range(9)):
            changes, coxeter = _convention_pair(k, parity_prime, r, r_prime)
            assert set(map(_conjugate_beta, changes.row_labels)) == set(coxeter.row_labels)
            assert set(map(_conjugate_beta, changes.col_labels)) == set(coxeter.col_labels)
            assert dict(coxeter.entries.items()) == _relabelled_entries(changes), (
                k, parity_prime, r, r_prime,
            )

    def test_theta_images_are_relabelled(self):
        for k, parity_prime, r, r_prime in product(range(4), (0, 1), range(7), range(7)):
            k_prime = theta_cuspidal(k, parity_prime)
            ctx = TowerContext(witt_index_of_cuspidal(k) + r, triangular(k) % 2)
            ctx_prime = TowerContext(witt_index_of_cuspidal(k_prime) + r_prime, parity_prime)
            for label in bipartitions_of(r):
                changes = theta_images(
                    SeriesLabel(k, label), ctx, ctx_prime, convention="sign_changes"
                )
                coxeter = theta_images(
                    SeriesLabel(k, _conjugate_beta(label)), ctx, ctx_prime,
                    convention="coxeter_sign",
                )
                want = {
                    SeriesLabel(k_prime, _conjugate_beta(sl.char_label)): mult
                    for sl, mult in changes
                }
                assert len(coxeter) == len(changes)
                assert dict(coxeter) == want, (k, parity_prime, label, r_prime)

    def test_pieri_induction_is_relabelled(self):
        for l, s, second in product(range(6), range(5), ("trivial", "sgn")):
            for chi in bipartitions_of(l):
                changes = pieri_induction(chi, s, second, "sign_changes")
                coxeter = pieri_induction(_conjugate_beta(chi), s, second, "coxeter_sign")
                assert sorted(coxeter) == sorted(map(_conjugate_beta, changes)), (chi, s)

    @settings(deadline=None, max_examples=8)
    @given(
        k=st.integers(0, 3),
        parity_prime=st.integers(0, 1),
        r=st.integers(9, 10),
        r_prime=st.integers(9, 10),
    )
    def test_tables_above_the_sweep_are_relabelled(self, k, parity_prime, r, r_prime):
        changes, coxeter = _convention_pair(k, parity_prime, r, r_prime)
        assert dict(coxeter.entries.items()) == _relabelled_entries(changes)


def _sgn_strip_indices(n: int, l: int, convention: str) -> tuple:
    """The index lists of Ind(chi x sgn), one tuple per chi in Irr(W_l):
    sgn Ind(sgn chi x 1), the trivial list of sgn chi read through the twist
    permutation of rank n, sorted."""
    trivial = unipotent._strip_indices(n, l)
    twist_n = unipotent._twist_permutation(n, convention).__getitem__
    return tuple(
        tuple(sorted(map(twist_n, trivial[j])))
        for j in unipotent._twist_permutation(l, convention)
    )


def _clear_index_caches():
    """Every cache the omega sum in index space reads or fills."""
    for cached in (
        unipotent._omega_cached,
        unipotent._sum_entries,
        unipotent._strip_indices,
        unipotent._twist_permutation,
        unipotent._star_permutation,
        partitions._bipartition_index,
        partitions._bipartition_radix,
        partitions._partition_position,
        partitions._strip_relation,
    ):
        cached.cache_clear()


def _clear_all_caches():
    _clear_index_caches()
    for cached in (
        partitions._horizontal_strips,
        partitions._bipartitions_of,
        partitions._partitions_of,
    ):
        cached.cache_clear()


def _hook_length_degree(p) -> int:
    """Degree of the irreducible character of S_n labelled by p."""
    conj = [sum(1 for row in p if row > j) for j in range(p[0])] if p else []
    hooks = prod(
        p[i] - j + conj[j] - i - 1 for i in range(len(p)) for j in range(p[i])
    )
    return factorial(sum(p)) // hooks


def _wn_degree(bp) -> int:
    """Degree of chi_(alpha, beta) of W_n: C(n, |alpha|) f^alpha f^beta."""
    a, b = sum(bp.alpha), sum(bp.beta)
    return comb(a + b, a) * _hook_length_degree(bp.alpha) * _hook_length_degree(bp.beta)


def _coupling_degree(r: int, r_prime: int) -> int:
    """Degree of the coupling of ranks r, r': the sum over l of
    [W_r : W_l x W_(r-l)] [W_r' : W_l x W_(r'-l)] |W_l|."""
    return sum(
        comb(r, l) * comb(r_prime, l) * 2**l * factorial(l)
        for l in range(min(r, r_prime) + 1)
    )


class TestIndexSpaceAssembly:
    """The omega sum runs over cached index lists; tables must not depend on
    what those caches held before."""

    CASES = [
        (r, r_prime, parity_prime, convention)
        for convention in SGN_CONVENTIONS
        for parity_prime in (0, 1)  # k = 0: first kind, then second kind
        for r in range(9)
        for r_prime in range(9)
    ]

    @staticmethod
    def _snapshot(r, r_prime, parity_prime, convention):
        table = omega_unipotent(
            TowerContext(r, 0), TowerContext(r_prime, parity_prime), 0,
            convention=convention,
        )
        return list(table.entries.items()), table.to_json_dict()

    def test_tables_do_not_depend_on_cache_state(self):
        cold = {}
        for case in self.CASES:
            _clear_all_caches()
            cold[case] = self._snapshot(*case)
        # warmed by other ranks first: the largest tables, then the rest
        _clear_all_caches()
        for case in sorted(self.CASES, reverse=True):
            assert self._snapshot(*case) == cold[case], case
        # every index cache emptied between tables
        for case in self.CASES:
            _clear_index_caches()
            assert self._snapshot(*case) == cold[case], case

    def test_tables_never_call_the_label_strip_generators(self, monkeypatch):
        """The omega sum reads strips in index space only; the label-level
        generators serve single rows, pieri_induction and the public API."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the omega sum called a label-level strip generator")

        _clear_all_caches()
        for module in (partitions, unipotent):
            monkeypatch.setattr(module, "_horizontal_strips", forbidden)
        for case in self.CASES:
            self._snapshot(*case)

    def test_index_lists_equal_the_label_hashing_reference(self):
        """The radix arithmetic gives the tuples that hashing each label
        gave, for every n <= 14, l <= n, linear character and convention:
        the sgn lists are the trivial lists read through the twist
        permutations, as the second-kind tables read them."""
        for n in range(15):
            for convention in SGN_CONVENTIONS:
                assert unipotent._twist_permutation(
                    n, convention
                ) == reference_pieri.twist_permutation(n, convention), (n, convention)
            for l in range(n + 1):
                assert unipotent._strip_indices(n, l) == reference_pieri.strip_indices(
                    n, l, "trivial"
                ), (n, l)
                for convention in SGN_CONVENTIONS:
                    assert _sgn_strip_indices(
                        n, l, convention
                    ) == reference_pieri.strip_indices(n, l, "sgn", convention), (n, l, convention)

    @settings(deadline=None, max_examples=50)
    @given(n=st.integers(0, 16), convention=st.sampled_from(SGN_CONVENTIONS))
    def test_star_permutation_is_an_involution(self, n, convention):
        perm = unipotent._star_permutation(n, convention)
        assert sorted(perm) == list(range(len(perm)))
        assert all(perm[j] == i for i, j in enumerate(perm))

    @settings(deadline=None, max_examples=25)
    @given(
        k=st.integers(0, 3),
        parity_prime=st.integers(0, 1),
        convention=st.sampled_from(SGN_CONVENTIONS),
        r=st.integers(0, 12),
        r_prime=st.integers(0, 12),
    )
    def test_degree_identity(self, k, parity_prime, convention, r, r_prime):
        """Sum of mult * deg(row) * deg(col) equals the degree of the
        coupling, as in test_degree_identity_at_rank_12, at random ranks."""
        k_prime = theta_cuspidal(k, parity_prime)
        ctx, ctx_p = _series_context(k, r), _series_context(k_prime, r_prime)
        table = omega_unipotent(ctx, ctx_p, k, convention=convention)
        got = sum(
            mult * _wn_degree(a) * _wn_degree(b)
            for (a, b), mult in table.entries.items()
        )
        assert got == _coupling_degree(r, r_prime), (k, parity_prime, convention)

    @pytest.mark.parametrize("k, parity_prime", [(0, 0), (0, 1), (1, 1)])
    def test_degree_identity_at_rank_12(self, k, parity_prime):
        """Sum of mult * deg(row) * deg(col) equals the degree of the
        coupling, sum over l of [W_r : W_l x W_(r-l)] [W_r' : W_l x W_(r'-l)]
        |W_l| = C(r, l) C(r', l) 2^l l!, with hook-length degrees."""
        r = r_prime = 12
        k_prime = theta_cuspidal(k, parity_prime)
        ctx, ctx_p = _series_context(k, r), _series_context(k_prime, r_prime)
        want = _coupling_degree(r, r_prime)
        degree = {bp: _wn_degree(bp) for bp in bipartitions_of(r)}
        for convention in SGN_CONVENTIONS:
            table = omega_unipotent(ctx, ctx_p, k, convention=convention)
            got = sum(
                mult * degree[a] * degree[b]
                for (a, b), mult in table.entries.items()
            )
            assert got == want, (k, parity_prime, convention)


class TestEntriesView:
    """``entries`` is a read-only mapping over cells stored in index space;
    it must read exactly as the label-keyed dict of the same cells."""

    # (m, parity, m', parity', k): first kind, second kind, zero table
    TABLES = {
        "first-kind": (3, 0, 2, 0, 0),
        "second-kind": (3, 0, 2, 1, 0),
        "zero": (2, 1, 2, 0, 2),
    }

    @staticmethod
    def _table(args, convention="coxeter_sign"):
        return omega_unipotent(
            TowerContext(*args[:2]), TowerContext(*args[2:4]), args[4],
            convention=convention,
        )

    @staticmethod
    def _replug(table, cells: dict):
        """``table`` with ``cells`` passed in as a plain dict."""
        return MultiplicityTable(
            table.m, table.m_prime, table.k, table.k_prime, table.convention, cells
        )

    @staticmethod
    def _json_items(table) -> list:
        """The JSON ``entries`` triples, read through the labels."""
        rows, cols = table.row_labels, table.col_labels
        return [((rows[i], cols[j]), mult) for i, j, mult in table.to_json_dict()["entries"]]

    @staticmethod
    def _sum_order(table) -> dict:
        """The cells of a table of the omega sum, in the order the sum
        first gives them: a second-kind table reads its row indices through
        its row permutation."""
        rows, cols = table.row_labels, table.col_labels
        entries = table.entries
        if entries._row_twist is not None:
            rows = [rows[i] for i in entries._row_twist]
        pairs = chain.from_iterable(starmap(product, zip(*entries._blocks)))
        return {(rows[i], cols[j]): entries[rows[i], cols[j]] for i, j in pairs}

    @pytest.mark.parametrize("passed", ["built", "plain dict, reversed"])
    @pytest.mark.parametrize("kind", TABLES)
    def test_mapping_semantics(self, kind, passed):
        table = self._table(self.TABLES[kind])
        if passed != "built":
            table = self._replug(table, dict(reversed(list(table.entries.items()))))
        entries = table.entries
        plain = dict(entries.items())
        assert table.formula == (None if kind == "zero" else kind)
        # one order: by row, then by column, as in the JSON entries list
        assert list(entries.items()) == self._json_items(table)
        assert len(entries) == len(plain) == len(list(entries))
        assert list(entries) == list(plain)
        assert list(entries.keys()) == list(plain.keys())
        assert list(entries.values()) == list(plain.values())
        for key, mult in plain.items():
            assert key in entries and entries[key] == mult
            assert entries.get(key) == mult
        unstored = [
            (row, col)
            for row in table.row_labels
            for col in table.col_labels
            if (row, col) not in plain
        ]
        foreign = [
            *unstored[:3],
            (bipartition((9,), ()), bipartition((9,), ())),  # sizes of no label
            (TRIV1,),
            "ab",
            None,
        ]
        assert kind == "zero" or unstored
        for key in foreign:
            assert key not in entries
            assert entries.get(key) is None and entries.get(key, 0) == 0
            with pytest.raises(KeyError):
                entries[key]
        assert entries == plain and plain == entries
        assert not entries != plain
        changed = dict(plain, **{"x": 1})
        assert entries != changed and changed != entries
        assert repr(entries) == repr(plain)
        for row in table.row_labels:
            assert table.row(row) == [
                (col, plain[row, col]) for col in table.col_labels if (row, col) in plain
            ]
        with pytest.raises(TypeError):
            hash(table)

    @pytest.mark.parametrize("kind", TABLES)
    def test_entries_are_read_only(self, kind):
        entries = self._table(self.TABLES[kind]).entries
        with pytest.raises(TypeError):
            entries[EMPTY, EMPTY] = 1
        assert not hasattr(entries, "pop") and not hasattr(entries, "update")

    @settings(deadline=None, max_examples=40)
    @given(
        r=st.integers(0, 7),
        r_prime=st.integers(0, 7),
        parity_prime=st.integers(0, 1),
        convention=st.sampled_from(SGN_CONVENTIONS),
    )
    def test_row_and_entry_agree_with_the_items(self, r, r_prime, parity_prime, convention):
        """k = 0: first kind against the even tower, second kind against
        the odd one."""
        table = omega_unipotent(
            TowerContext(r, 0), TowerContext(r_prime, parity_prime), 0,
            convention=convention,
        )
        items = dict(table.entries.items())
        for row in table.row_labels:
            want = [(col, items[row, col]) for col in table.col_labels if (row, col) in items]
            assert table.row(row) == want
            for col in table.col_labels:
                assert table.entry(row, col) == items.get((row, col), 0)

    @pytest.mark.parametrize("order", ["sum", "reversed sum"])
    @pytest.mark.parametrize("kind", TABLES)
    @pytest.mark.parametrize("convention", SGN_CONVENTIONS)
    def test_a_plain_dict_in_sum_order_renders_alike(self, kind, convention, order):
        table = self._table(self.TABLES[kind], convention)
        cells = list(self._sum_order(table).items())
        assert sorted(cells) == sorted(table.entries.items())
        plain = self._replug(table, dict(cells if order == "sum" else reversed(cells)))
        assert plain.entries is not table.entries
        assert list(plain.entries.items()) == list(table.entries.items())
        assert list(table.entries.items()) == self._json_items(table)
        assert plain.to_json_dict() == table.to_json_dict()
        assert plain.to_text() == table.to_text()
        assert [plain.row(bp) for bp in plain.row_labels] == [
            table.row(bp) for bp in table.row_labels
        ]

    def test_a_foreign_label_is_refused(self):
        table = self._table(self.TABLES["first-kind"])
        with pytest.raises(ValueError, match="is not a label of this table"):
            self._replug(table, {(TRIV1, TRIV1): 1})

    @pytest.mark.parametrize("kind", TABLES)
    def test_a_mapping_in_any_order_reads_alike(self, kind):
        """A table built from a dict reads the same through items(),
        entry, row, to_text and to_json_dict whatever the insertion order
        of the dict: each cell is placed by the labels of the table's ranks."""
        table = self._table(self.TABLES[kind])
        cells = list(table.entries.items())
        rng = random.Random(kind)
        for _ in range(4):
            rng.shuffle(cells)
            plain = self._replug(table, dict(cells))
            assert list(plain.entries.items()) == list(table.entries.items())
            assert plain.to_json_dict() == table.to_json_dict()
            assert plain.to_text() == table.to_text()
            for row in table.row_labels:
                assert plain.row(row) == table.row(row)
                for col in table.col_labels:
                    assert plain.entry(row, col) == table.entry(row, col)

    def test_cells_sit_where_their_labels_say(self):
        """The labels of a table built from a dict are those of its ranks,
        so a dict listing a later row first cannot relabel a cell."""
        table = MultiplicityTable(1, 1, 0, 0, "coxeter_sign", {(SGN1, TRIV1): 2, (TRIV1, TRIV1): 1})
        assert table.row_labels == table.col_labels == (TRIV1, SGN1)
        assert list(table.entries.items()) == [((TRIV1, TRIV1), 1), ((SGN1, TRIV1), 2)]
        assert (table.entry(TRIV1, TRIV1), table.entry(SGN1, TRIV1)) == (1, 2)
        assert table.row(SGN1) == [(TRIV1, 2)]
        assert table.to_json_dict()["entries"] == [[0, 0, 1], [1, 0, 2]]

    @pytest.mark.parametrize(
        "args, cell",
        [
            ((1, 1, 0, 0), (bipartition((2,), ()), TRIV1)),
            ((1, 1, 0, 0), (TRIV1, EMPTY)),
            ((1, 1, 0, 0), ("x", TRIV1)),
            ((2, 2, 2, 3), (TRIV1, TRIV1)),
        ],
        ids=["row of another size", "column of another size", "no label", "zero table"],
    )
    def test_a_label_not_of_the_ranks_is_refused(self, args, cell):
        with pytest.raises(ValueError, match="is not a label of this table"):
            MultiplicityTable(*args, "coxeter_sign", {cell: 1})

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 0, 2, 0, "coxeter_sign"), r"Witt index 0 is below the cuspidal support m\(2\)"),
            ((1, 1, 2, 2, "coxeter_sign"), "k' = 2 is not a partner of k = 2"),
            ((1, 1, 0, 0, "bogus"), "unknown sgn convention 'bogus'"),
        ],
        ids=["r below zero", "no partner", "unknown convention"],
    )
    def test_ranks_partner_and_convention_are_checked(self, args, message, monkeypatch):
        """A table built from a mapping is checked as omega_unipotent checks
        its arguments, before any rank is looked up (r = -1 would be cached)."""
        looked_up = []
        monkeypatch.setattr(unipotent, "_bipartition_index", looked_up.append)
        with pytest.raises(ValueError, match=message):
            MultiplicityTable(*args, {})
        assert looked_up == []

    @pytest.mark.parametrize(
        "mult, message",
        [
            (0, "^multiplicity must be positive, got 0$"),
            (1.5, "^multiplicity must be an integer, got 1.5$"),
            ("x", "^multiplicity must be an integer, got 'x'$"),
        ],
        ids=["zero", "float", "string"],
    )
    def test_a_multiplicity_must_be_a_positive_integer(self, mult, message):
        a = bipartition((2,), ())
        with pytest.raises(ValueError, match=message):
            MultiplicityTable(2, 2, 0, 0, "coxeter_sign", {(a, a): mult})

    def test_a_bool_multiplicity_is_stored_as_an_int(self):
        a = bipartition((2,), ())
        table = MultiplicityTable(2, 2, 0, 0, "coxeter_sign", {(a, a): True})
        assert [type(x) for x in (table.entry(a, a), table.row(a)[0][1])] == [int, int]
        assert [type(x) for x in table.to_json_dict()["entries"][0]] == [int, int, int]

    @pytest.mark.parametrize("kind", TABLES)
    def test_labels_are_attached_only_at_output(self, kind, monkeypatch):
        """Building a table and rendering it hash no label into a
        position."""

        def forbidden(n):
            raise AssertionError("a label was hashed into a position")

        args = self.TABLES[kind]
        want = {}
        for convention in SGN_CONVENTIONS:
            table = self._table(args, convention)
            want[convention] = table.to_json_dict(), table.to_text()
        unipotent._sum_entries.cache_clear()
        for module in (partitions, unipotent):
            monkeypatch.setattr(module, "_bipartition_index", forbidden)
        for convention in SGN_CONVENTIONS:
            table = _omega_cached.__wrapped__(*args, convention)
            assert (table.to_json_dict(), table.to_text()) == want[convention]

    @pytest.mark.parametrize(
        "parity_prime, cells", [(0, 21105), (1, 7651)], ids=["first-kind", "second-kind"]
    )
    def test_a_first_kind_table_holds_no_cell(self, parity_prime, cells):
        """With the index caches warm, a table of either kind keeps
        references to the cached index tuples, not one key per cell: the
        21,105 first-kind cells at r = r' = 12 held 1.8 MiB as a
        label-keyed dict, the 7,651 second-kind cells 0.58 MiB as a
        Counter over index pairs."""
        args = (12, 0, 12, parity_prime, 0, "coxeter_sign")
        _omega_cached.__wrapped__(*args)
        unipotent._sum_entries.cache_clear()
        tracemalloc.start()
        try:
            table = _omega_cached.__wrapped__(*args)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.entries) == cells
        assert retained < 0.2 * 2**20

    @pytest.mark.parametrize(
        "alpha, beta", [([1], []), ((), [1]), ([1], ())], ids=["lists", "mixed", "list_alpha"]
    )
    def test_lookups_with_plain_sequence_parts(self, alpha, beta):
        """A label with list parts reads as the label of Partitions it
        names, as theta_images reads it."""
        table = omega_unipotent(TowerContext(1, 0), TowerContext(1, 0), 0)
        plain, want = Bipartition(alpha, beta), bipartition(alpha, beta)
        assert table.row(plain) == table.row(want) != []
        for col in table.col_labels:
            assert table.entry(plain, col) == table.entry(want, col)
            assert table.entry(col, plain) == table.entry(col, want)
        assert table.entry(plain, plain) == table.entry(want, want)
        assert table.entry(plain, TRIV1) == 1

    def test_star_permutation_equals_the_label_hashing_reference(self):
        for n in range(15):
            position = {p: i for i, p in enumerate(partitions.partitions_of(n))}
            for convention in SGN_CONVENTIONS:
                want = tuple(
                    position[unipotent._star(p, convention)]
                    for p in partitions.partitions_of(n)
                )
                assert unipotent._star_permutation(n, convention) == want, (n, convention)


class TestThetaImages:
    def test_smallest(self):
        images = theta_images(
            SeriesLabel(0, EMPTY), TowerContext(0, 0), TowerContext(0, 0)
        )
        assert images == [(SeriesLabel(0, EMPTY), 1)]

    def test_two_images(self):
        images = theta_images(
            SeriesLabel(0, TRIV1), TowerContext(1, 0), TowerContext(1, 0)
        )
        assert images == [(SeriesLabel(0, TRIV1), 1), (SeriesLabel(0, SGN1), 1)]

    def test_one_image(self):
        images = theta_images(
            SeriesLabel(0, SGN1), TowerContext(1, 0), TowerContext(1, 0)
        )
        assert images == [(SeriesLabel(0, TRIV1), 1)]

    def test_label_size_validation(self):
        with pytest.raises(ValueError):
            theta_images(
                SeriesLabel(0, TRIV1), TowerContext(2, 0), TowerContext(1, 0)
            )

    def test_wrong_label_size_fails_before_building_the_table(self):
        # a table no other test asks for, so building it would show as a miss
        ctx, ctx_p = TowerContext(12, 0), TowerContext(11, 1)
        before = _omega_cached.cache_info()
        for query in (theta_images, extremal_images):
            with pytest.raises(ValueError, match="expected r = 12"):
                query(SeriesLabel(0, TRIV1), ctx, ctx_p, convention="sign_changes")
        after = _omega_cached.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses

    @pytest.mark.parametrize(
        "alpha, beta", [((2,), ()), ([2], []), ((), [1, 1])], ids=["tuples", "lists", "mixed"]
    )
    def test_labels_with_plain_sequence_parts(self, alpha, beta):
        ctx, ctx_p = TowerContext(2, 0), TowerContext(3, 0)
        plain = SeriesLabel(0, Bipartition(alpha, beta))
        want = SeriesLabel(0, bipartition(alpha, beta))
        for query in (theta_images, extremal_images):
            assert query(plain, ctx, ctx_p) == query(want, ctx, ctx_p)

    def test_a_malformed_plain_label_is_refused(self):
        # the right size, so the parts themselves must be checked
        pi = SeriesLabel(0, Bipartition((1, 2), ()))
        for query in (theta_images, extremal_images):
            with pytest.raises(ValueError, match="weakly decreasing"):
                query(pi, TowerContext(3, 0), TowerContext(3, 0))

    def test_empty_below_first_occurrence(self):
        images = theta_images(
            SeriesLabel(2, TRIV1), TowerContext(2, 1), TowerContext(2, 0)
        )
        assert images == []

    def test_closed_form_rows_match_the_table(self):
        """Every row of every table with r, r' <= 10, k <= 3, both partner
        parities and both conventions: the same columns, order and
        multiplicities as the index-space sum.  A table depends on k only
        through its kind, so the rows of each kind are read once with
        ``MultiplicityTable.row``, and every other table of that kind must
        have the same entries."""
        for convention in SGN_CONVENTIONS:
            for r in range(11):
                for r_prime in range(11):
                    first_of_kind = {}
                    for k in range(4):
                        for parity_prime in (0, 1):
                            k_prime = theta_cuspidal(k, parity_prime)
                            ctx, ctx_p = _series_context(k, r), _series_context(k_prime, r_prime)
                            table = omega_unipotent(
                                ctx, ctx_p, k, convention=convention
                            )
                            if table.formula not in first_of_kind:
                                first_of_kind[table.formula] = table, [
                                    table.row(bp) for bp in table.row_labels
                                ]
                            first, rows = first_of_kind[table.formula]
                            assert table.entries == first.entries
                            for bp, row in zip(table.row_labels, rows):
                                got = theta_images(
                                    SeriesLabel(k, bp), ctx, ctx_p,
                                    convention=convention,
                                )
                                want = [
                                    (SeriesLabel(k_prime, col), mult)
                                    for col, mult in row
                                ]
                                assert got == want, (k, parity_prime, r, r_prime, bp)

    def test_rank_30_queries_build_no_table(self):
        before = _omega_cached.cache_info()
        ctx = TowerContext(30, 0)
        labels = [
            bipartition((10, 5), (8, 4, 3)),
            bipartition((30,), ()),
            bipartition((), (2,) * 15),
        ]
        for parity_prime in (0, 1):  # k = 0: first kind, then second kind
            ctx_p = TowerContext(30, parity_prime)
            for convention in SGN_CONVENTIONS:
                for bp in labels:
                    pi = SeriesLabel(0, bp)
                    images = theta_images(pi, ctx, ctx_p, convention=convention)
                    assert images
                    lo, hi = extremal_images(pi, ctx, ctx_p, convention=convention)
                    assert all(
                        bipartition_dominance_leq(lo.char_label, img.char_label)
                        and bipartition_dominance_leq(img.char_label, hi.char_label)
                        for img, _ in images
                    )
        after = _omega_cached.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses


class TestExtremalImages:
    def test_singleton(self):
        lo, hi = extremal_images(
            SeriesLabel(0, SGN1), TowerContext(1, 0), TowerContext(1, 0)
        )
        assert lo == hi == SeriesLabel(0, TRIV1)

    def test_two_element_image(self):
        lo, hi = extremal_images(
            SeriesLabel(0, TRIV1), TowerContext(1, 0), TowerContext(1, 0)
        )
        assert lo == SeriesLabel(0, SGN1)
        assert hi == SeriesLabel(0, TRIV1)

    def test_empty_image_raises(self):
        below = r"is empty \(below first occurrence: m' < 3 = m\(3\)\)"
        with pytest.raises(EmptyImageError, match=below):
            extremal_images(
                SeriesLabel(2, TRIV1), TowerContext(2, 1), TowerContext(2, 0)
            )

    def test_empty_row_above_first_occurrence(self):
        # m' = 0 = m(k' = 0), so the first-kind table is nonzero; its row -|1
        # is empty, as the row needs a strip of r - r' = 1 cell off alpha = -
        pi, ctx, ctx_prime = SeriesLabel(0, SGN1), TowerContext(1, 0), TowerContext(0, 0)
        assert omega_unipotent(ctx, ctx_prime, 0).formula == "first-kind"
        assert theta_images(pi, ctx, ctx_prime) == []
        empty_row = r"is empty \(its row of the nonzero table at r=1, r'=0 is empty\)"
        with pytest.raises(EmptyImageError, match=empty_row):
            extremal_images(pi, ctx, ctx_prime)

    @pytest.mark.parametrize("k", range(3))
    def test_empty_image_names_its_cause(self, k):
        """Every empty image with r <= 3, both partner parities and m' up to
        three past the first occurrence, in both conventions: the error says
        "below first occurrence" exactly when m' < m(k'), and otherwise names
        the row and ranks; a nonempty image gives extremes from the image."""
        causes = set()
        for r, parity_p, convention in product(range(4), (0, 1), SGN_CONVENTIONS):
            ctx = TowerContext(witt_index_of_cuspidal(k) + r, triangular(k) % 2)
            k_prime = theta_cuspidal(k, parity_p)
            first = witt_index_of_cuspidal(k_prime)
            for m_prime, label in product(range(first + 4), bipartitions_of(r)):
                pi, ctx_p = SeriesLabel(k, label), TowerContext(m_prime, parity_p)
                images = theta_images(pi, ctx, ctx_p, convention=convention)
                if images:
                    lo, hi = extremal_images(pi, ctx, ctx_p, convention=convention)
                    assert {lo, hi} <= {sl for sl, _ in images}
                    continue
                if m_prime < first:
                    reason = f"below first occurrence: m' < {first} = m({k_prime})"
                else:
                    table = omega_unipotent(ctx, ctx_p, k, convention=convention)
                    assert table.entries and not table.row(label)
                    reason = (f"its row of the nonzero table at r={r}, "
                              f"r'={m_prime - first} is empty")
                with pytest.raises(EmptyImageError) as raised:
                    extremal_images(pi, ctx, ctx_p, convention=convention)
                assert str(raised.value) == f"image of {pi} is empty ({reason})"
                causes.add(m_prime < first)
        # k = 0 goes to k' = 0 or 1, which occur first at m' = 0
        assert causes == ({True, False} if k else {False})

    def test_extremes_bound_every_image(self):
        from howecorr.partitions import bipartition_dominance_leq

        for k in (0, 1, 2):
            for parity_prime in (0, 1):
                k_prime = theta_cuspidal(k, parity_prime)
                for r in range(4):
                    for r_prime in range(4):
                        ctx, ctx_p = _series_context(k, r), _series_context(k_prime, r_prime)
                        table = omega_unipotent(ctx, ctx_p, k)
                        for bp in table.row_labels:
                            if not table.row(bp):
                                continue
                            pi = SeriesLabel(k, bp)
                            lo, hi = extremal_images(pi, ctx, ctx_p)
                            for img, _ in theta_images(pi, ctx, ctx_p):
                                assert bipartition_dominance_leq(
                                    lo.char_label, img.char_label
                                )
                                assert bipartition_dominance_leq(
                                    img.char_label, hi.char_label
                                )

    def test_antichain_error_carries_witness(self, monkeypatch):
        # vectors no two of which compare force the diagnostic
        def incomparable(x, width):
            return (x.alpha.size, -x.alpha.size)

        monkeypatch.setattr(unipotent, "_dominance_vector", incomparable)
        with pytest.raises(NonUniqueExtremeError) as err:
            extremal_images(
                SeriesLabel(0, TRIV1), TowerContext(1, 0), TowerContext(1, 0)
            )
        assert len(err.value.antichain) >= 2

    @pytest.mark.parametrize("sign", [1, -1])
    def test_antichain_matches_the_quadratic_scan(self, sign, monkeypatch):
        # labels ordered by sign * |alpha|, equal sizes incomparable; the
        # image of 1|1 at r = r' = 2 is 2|-, 1,1|-, 1|1, so one end of the
        # order holds two labels: the top for sign 1, the bottom for -1
        def order(x, y):
            return x == y or sign * x.alpha.size < sign * y.alpha.size

        vector = _planted_vector(sign)
        pi, ctx = SeriesLabel(0, bipartition((1,), (1,))), TowerContext(2, 0)
        labels = [img.char_label for img, _ in theta_images(pi, ctx, ctx)]
        for x in labels:
            for y in labels:
                assert all(map(le, vector(x, 0), vector(y, 0))) == order(x, y)
        if sign == 1:  # the maximal labels
            want = [x for x in labels if not any(order(x, y) and y != x for y in labels)]
        else:  # the minimal labels
            want = [x for x in labels if not any(order(y, x) and y != x for y in labels)]
        assert len(want) == 2
        extreme = "maximum" if sign == 1 else "minimum"
        monkeypatch.setattr(unipotent, "_dominance_vector", vector)
        with pytest.raises(NonUniqueExtremeError, match=f"no unique {extreme}") as err:
            extremal_images(pi, ctx, ctx)
        assert err.value.antichain == tuple(want)

    @pytest.mark.parametrize(
        "sign, extreme, kind",
        [(1, "maximum", "maximal"), (-1, "minimum", "minimal")],
    )
    def test_antichain_message_is_pinned(self, sign, extreme, kind, monkeypatch):
        # the order of test_antichain_matches_the_quadratic_scan: at r = r' = 2
        # the image of 1|1 has the two-label antichain 2|-, 1,1|- at one end
        seen = []
        planted = _planted_vector(sign)

        def vector(x, width):
            seen.append((x, width))
            return planted(x, width)

        pi, ctx = SeriesLabel(0, bipartition((1,), (1,))), TowerContext(2, 0)
        monkeypatch.setattr(unipotent, "_dominance_vector", vector)
        with pytest.raises(NonUniqueExtremeError) as err:
            extremal_images(pi, ctx, ctx)
        antichain = (bipartition((2,), ()), bipartition((1, 1), ()))
        assert err.value.antichain == antichain
        assert str(err.value) == (
            f"no unique {extreme} among images of SeriesLabel(k=0, "
            "char_label=Bipartition(alpha=(1,), beta=(1,))): "
            f"{kind} antichain [Bipartition(alpha=(2,), beta=()), "
            "Bipartition(alpha=(1, 1), beta=())]"
        )
        # one vector per image, in row order, at the common width: the
        # longest component, 1,1
        assert seen == [(x, 2) for x in (*antichain, bipartition((1,), (1,)))]

    def test_pass_matches_the_definitions_on_every_row(self):
        """Every nonempty row with r, r' <= 8, both kinds and both
        conventions: the pass certifies the extremes that the definitions
        give.  A row depends on k only through its kind (k = 0 is of the
        first kind against the even tower and of the second against the
        odd one)."""
        for convention in SGN_CONVENTIONS:
            for first_kind in (True, False):
                for r in range(9):
                    for r_prime in range(9):
                        for bp in bipartitions_of(r):
                            row = unipotent._coupling_row(
                                Partition(bp.alpha), Partition(bp.beta),
                                r, r_prime, first_kind, convention,
                            )
                            if not row:
                                continue
                            pi = SeriesLabel(0, bp)
                            labels = [col for col, _ in row]
                            want = _extremes_by_definition(pi, 1, labels)
                            assert _image_extremes(pi, 1, labels) == want

    @given(
        labels=st.integers(0, 8).flatmap(
            lambda n: st.lists(
                st.sampled_from(bipartitions_of(n)), min_size=1, unique=True
            )
        )
    )
    @settings(deadline=None, max_examples=300)
    def test_pass_matches_the_definitions_on_any_label_set(self, labels):
        # random subsets of Irr(W_n) in random order reach the antichain path
        pi = SeriesLabel(0, labels[0])
        try:
            want = _extremes_by_definition(pi, 1, labels)
        except NonUniqueExtremeError as err:
            with pytest.raises(NonUniqueExtremeError) as got:
                _image_extremes(pi, 1, labels)
            assert str(got.value) == str(err)
            assert got.value.antichain == err.antichain
        else:
            assert _image_extremes(pi, 1, labels) == want


def _planted_vector(sign):
    """Vectors whose entrywise order, on the images 2|-, 1,1|-, 1|1 of 1|1
    at r = r' = 2, ranks labels by sign * |alpha| and leaves equal sizes
    incomparable: a step of 2 in the level outweighs the tilt of 1 that
    keeps 2|- and 1,1|- apart."""

    def vector(x, width):
        level, tilt = 2 * sign * x.alpha.size, len(x.alpha)
        return (level + tilt, level - tilt)

    return vector


def _extremes_by_definition(pi, k_prime, labels):
    """Reference for ``_image_extremes``, read off the definitions with
    bipartition_dominance_leq: the least label is below every label and the
    greatest above every label.  Without one, the minimal (maximal) labels,
    in row order, make the antichain of the same error."""
    leq = bipartition_dominance_leq
    ends = []
    for below, extreme, kind in (
        (leq, "minimum", "minimal"),
        (lambda x, y: leq(y, x), "maximum", "maximal"),
    ):
        found = [x for x in labels if all(below(x, y) for y in labels)]
        if not found:
            antichain = [
                x for x in labels if not any(below(y, x) and y != x for y in labels)
            ]
            raise NonUniqueExtremeError(
                f"no unique {extreme} among images of {pi}: "
                f"{kind} antichain {antichain}",
                antichain=antichain,
            )
        assert len(found) == 1
        ends.append(SeriesLabel(k_prime, found[0]))
    return tuple(ends)
