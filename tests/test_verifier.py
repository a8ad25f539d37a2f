"""Report structure, suite behavior, determinism, coverage."""

import gc
import json
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping

import pytest

from jd3 import _coverage, asymptotics, diagram_spaces, multipoly, verifier
from jd3.asymptotics import REGIME_ONE, TVARS, PuiseuxPoly
from jd3.diagram_spaces import x_from_y
from jd3.multipoly import Poly
from jd3.verifier import (
    Report,
    RunConfig,
    _timed_check,
    run_all,
    verify_asymptotics,
    verify_even_dims,
    verify_lemma,
    verify_odd_vanishing,
    verify_properties,
)


def test_odd_suite_small():
    report = verify_odd_vanishing(9)
    assert report.all_passed
    quotients = [c for c in report.checks if c.id.startswith("odd.quotient_dim")]
    assert [c.actual for c in quotients] == ["0"] * 5  # L = 1, 3, 5, 7, 9
    per_degree = [c for c in report.checks if c.id.endswith("L=9")]
    assert {c.id.rsplit(".", 1)[0] for c in per_degree} == {
        "odd.ambient_dim",
        "odd.image_dim",
        "odd.quotient_dim",
        "odd.span_eq",
    }


def test_lemma_past_the_paper_cap():
    # the paper checks d <= 8; d = 9..11 run here, never inside `jd3 all`
    report = verify_lemma(11)
    assert report.all_passed
    ranks = {c.params["d"]: c.actual for c in report.checks if c.id.startswith("lemma.rank")}
    assert ranks == {str(d): str(len(verifier._lemma_triples(d))) for d in range(12)}


def test_odd_suite_empty():
    report = verify_odd_vanishing(0)
    assert report.summary == {"total": 0, "passed": 0, "failed": 0}


def test_even_suite_values():
    report = verify_even_dims(12)
    assert report.all_passed
    expected = {"0": "1", "2": "1", "4": "2", "6": "3", "8": "4", "10": "5", "12": "7"}
    for check in report.checks:
        assert check.actual == expected[check.params["n"]]


def test_even_suite_single_check_at_zero():
    report = verify_even_dims(0)
    assert report.summary["total"] == 1
    assert report.checks[0].actual == "1"


def test_even_suite_corrupt_hook_fails(wrong_closed_form):
    report = verify_even_dims(4)
    assert not report.all_passed
    assert report.summary["failed"] == report.summary["total"]


def test_lemma_suite_small(monkeypatch):
    divided = []
    uvw_from_uvrs = multipoly._uvw_from_uvrs

    def counted(q):
        divided.append(q)
        return uvw_from_uvrs(q)

    monkeypatch.setattr(multipoly, "_uvw_from_uvrs", counted)
    report = verify_lemma(3)
    assert report.all_passed
    # membership divides only P2, P3, P4 and the constant P4^0 w-adically and
    # multiplies them in u, v, w
    assert len(divided) == 4
    assert [q.terms for q in divided if not q.terms.keys() - {(0, 0, 0, 0)}] == [{(0, 0, 0, 0): 1}]
    ranks = {c.params["d"]: c.actual for c in report.checks if c.id.startswith("lemma.rank")}
    assert ranks == {"0": "1", "1": "1", "2": "2", "3": "3"}
    memberships = [c for c in report.checks if c.id.startswith("lemma.membership")]
    assert len(memberships) == 1 + 1 + 2 + 3
    assert all(c.actual == "member" for c in memberships)


def test_asymptotics_suite_counts():
    report = verify_asymptotics(3)
    # 7 triples with n + 2k + 3m <= 3, once per regime
    assert report.summary["total"] == 14
    assert report.all_passed
    report0 = verify_asymptotics(0)
    assert report0.summary["total"] == 2
    actuals = {c.id: c.actual for c in report0.checks}
    assert actuals["asym.regime1.n=0.m=0.k=0"] == "9*t^(6a+2b+c)"
    assert actuals["asym.regime2.n=0.m=0.k=0"] == "18*t^(5a+3b+c)"


def test_asymptotics_power_tables_live_for_one_regime_of_one_call():
    # peak measured at 1.64 to 1.66 MiB on Python 3.10 to 3.13, for both
    # regimes at d <= 12.  A d = 0 run first fills the fixed-size regime
    # image caches, so what stays traced after the d <= 12 run is what that
    # run kept, such as a table held between calls; each table builds its
    # own factors
    assert verify_asymptotics(0).all_passed
    gc.collect()
    tracemalloc.start()
    try:
        report = verify_asymptotics(12)
        peak = tracemalloc.get_traced_memory()[1]
        assert report.all_passed and report.summary["total"] == 204
        del report
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 21  # 2 MiB
    assert kept < 64 << 10


def test_lemma_power_tables_live_for_one_call():
    # a d = 0 run first fills the fixed-size caches, so what stays traced
    # after the d <= 8 run is what that run kept, such as a table held between calls
    assert verify_lemma(0).all_passed
    gc.collect()
    tracemalloc.start()
    try:
        report = verify_lemma(8)
        assert report.all_passed and report.summary["total"] == 59
        del report
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 64 << 10


def test_lemma_builds_each_slice_context_through_tet_slice(monkeypatch):
    # the lemma's rank check reads its degree's context from the ambient
    # slice, the one builder of a slice context
    legs_read, builders = [], []
    tet_slice, init = verifier.tet_slice, diagram_spaces._SkewSliceContext.__init__

    def counted_slice(legs):
        legs_read.append(legs)
        return tet_slice(legs)

    def counted_init(self, legs):
        builders.append(sys._getframe(1).f_code.co_name)
        init(self, legs)

    monkeypatch.setattr(verifier, "tet_slice", counted_slice)
    monkeypatch.setattr(diagram_spaces._SkewSliceContext, "__init__", counted_init)
    assert verifier.verify_lemma(8).all_passed
    assert legs_read == list(range(9, 26, 2))
    assert builders == ["tet_slice"] * len(legs_read)


def test_power_tables_build_their_factors_inside_a_check(monkeypatch):
    # a table's constructor does no arithmetic: its factors are built on the
    # first read, so a failure there is the reading check's FAIL record
    def broken(which, args):
        raise KeyError(which)

    monkeypatch.setattr(multipoly, "q_factor", broken)
    for report in (verify_asymptotics(0), verify_lemma(0)):
        assert report.summary["total"] == report.summary["failed"] > 0
        assert all(c.actual.startswith("error: KeyError: ") for c in report.checks)


def poly_rekeys(monkeypatch, when):
    """Two lists that gain, from here on, (when(), Poly, layout) per pack and (when(), Poly) per unpack.

    A Poly holds one form, so these are the re-keys its `packed` and
    `terms` make; each record holds its Poly, so no two share an address.
    """
    packs, unpacks, reading = [], [], []
    pack, unpack = multipoly.Packing.pack, multipoly.Packing.unpack

    def read(method):
        def wrapped(poly, *args):
            reading.append(poly)
            try:
                return method(poly, *args)
            finally:
                reading.pop()

        return wrapped

    def counted_pack(layout, terms):
        packs.append((when(), reading[-1], layout))
        return pack(layout, terms)

    def counted_unpack(layout, packed):
        if reading:  # not divide_exact's own quotient
            unpacks.append((when(), reading[-1]))
        return unpack(layout, packed)

    monkeypatch.setattr(Poly, "packed", read(Poly.packed))
    monkeypatch.setattr(Poly, "terms", property(read(Poly.terms.fget)))
    monkeypatch.setattr(multipoly.Packing, "pack", counted_pack)
    monkeypatch.setattr(multipoly.Packing, "unpack", counted_unpack)
    return packs, unpacks


def test_power_tables_run_their_chains_packed(monkeypatch):
    # every chain step and per-triple sum is a Poly product or sum, which runs
    # packed: outside building and carrying its factors, a table packs only
    # the carried factors, each once per layout, and unpacks nothing; a
    # reader that reads an entry's terms unpacks it once, however often
    depth = {"table": 0, "build": 0}
    factors, reads = [], {}

    def inside(key, original):
        def method(*args, **kwargs):
            depth[key] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[key] -= 1

        return method

    def table_only() -> bool:
        return depth["table"] > 0 and depth["build"] == 0

    def recorded_powers(self, base):
        if table_only():
            factors.append(base)
        powers(self, base)

    # each read is keyed by its table: holding the table and its entry keeps
    # both alive, so a later object cannot take a freed one's address
    def read(name, original):
        def method(self, *exponents):
            entry = inside("table", original)(self, *exponents)
            reads[self, name, exponents] = entry
            return entry

        return method

    table, powers = multipoly.QFactorPowers, multipoly.Powers.__init__
    packs, unpacks = poly_rekeys(monkeypatch, table_only)
    monkeypatch.setattr(multipoly.Powers, "__init__", recorded_powers)
    monkeypatch.setattr(table, "first", read("first", table.first))
    monkeypatch.setattr(table, "second", read("second", table.second))
    monkeypatch.setattr(multipoly, "q_factor", inside("build", multipoly.q_factor))
    for carry in ("substitute_regime", "_uvw_from_y"):
        monkeypatch.setattr(verifier, carry, inside("build", getattr(verifier, carry)))
    for report in (verify_asymptotics(12), verify_lemma(8)):
        assert report.all_passed
    # two regimes of 4 + 4 + 3 factors, and the lemma's 1 + 1 + 3 and 1 + 1 + 1
    assert len(factors) == 30
    packed = [(id(poly), layout) for in_table, poly, layout in packs if in_table]
    assert {poly for poly, _ in packed} <= {id(f) for f in factors}
    assert len(set(packed)) == len(packed)
    assert not any(in_table for in_table, _ in unpacks)
    entries = {id(entry) for entry in reads.values()}
    read_unpacks = [id(poly) for _, poly in unpacks if id(poly) in entries]
    assert 0 < len(read_unpacks) == len(set(read_unpacks)) <= len(reads)


def test_lemma_rows_pack_only_their_strict_part(monkeypatch):
    # apart from building the table's factors, each rank row packs one
    # polynomial, 24 G+, and reads S = second(k) as its table built it: no
    # second(k) with k >= 1 is packed for its row or ever unpacked, and the
    # constant second(0) is packed once for every row that reads it
    depth = {"row": 0, "build": 0}
    seconds, second = [], multipoly.QFactorPowers.second

    def inside(key, original):
        def method(*args):
            depth[key] += 1
            try:
                return original(*args)
            finally:
                depth[key] -= 1

        return method

    def kept_second(self, k):
        if depth["row"]:
            seconds.append((k, second(self, k)))
        return second(self, k)

    monkeypatch.setattr(verifier, "q_alternant_row", inside("row", verifier.q_alternant_row))
    monkeypatch.setattr(multipoly, "q_factor", inside("build", multipoly.q_factor))
    monkeypatch.setattr(multipoly.QFactorPowers, "second", kept_second)
    packs, unpacks = poly_rekeys(monkeypatch, lambda: depth["row"] > 0 and not depth["build"])
    assert verify_lemma(12).all_passed
    unpacked = {id(poly) for _, poly in unpacks}
    assert len(seconds) == 102 and [k for k, s in seconds if k and id(s) in unpacked] == []
    packed = [dict(poly.terms) for in_row, poly, _ in packs if in_row]
    assert packed.count({(0, 0, 0, 0): 3}) == 1
    strict = [terms for terms in packed if terms != {(0, 0, 0, 0): 3}]
    assert len(strict) == sum(len(verifier._lemma_triples(d)) for d in range(13)) == 102
    assert all(e[0] > e[1] > e[2] > e[3] == 0 for terms in strict for e in terms)


def test_a_read_table_entry_holds_one_term_map():
    # a Poly holds its terms once: reading them re-keys a packed entry to
    # tuples in place of its packed map, and `packed` re-keys it back; no map
    # is changed, so a view read earlier stays valid.  A one-triple entry is
    # its own Poly, so re-keying it leaves the chain's term packed
    def term_maps(poly):
        maps, found = [], [m for m in gc.get_referents(poly) if isinstance(m, Mapping)]
        while found:
            maps.append(found.pop())
            found += [m for m in gc.get_referents(maps[-1]) if isinstance(m, Mapping)]
        return [m for m in maps if type(m) is dict and len(m) == len(poly.terms)]

    table = multipoly.QFactorPowers(multipoly._Q_TRIPLES[:1], multipoly._Q_QUADS)
    entry, layout = table.first(2, 0), multipoly.Packing(4, 255)
    view = entry.terms
    expected = dict(view)
    assert entry.terms == expected and len(term_maps(entry)) == 1
    assert entry.packed(layout) is entry.packed(layout) and len(term_maps(entry)) == 1
    assert dict(view) == expected and layout.unpack(entry.packed(layout)) == expected
    assert table.first(3, 0) == (table.first(2, 0) * multipoly.p2(multipoly.YVARS, ("y1", "y2", "y3")))


def test_membership_fails_for_a_factor_outside_the_subring(monkeypatch):
    # membership reads only P2, P3 and P4 in u, v, w and multiplies there, so
    # a factor outside Z[u, v, w], here P4 times y3, fails every product with
    # a P4 in it, k >= 1, and no product with k = 0, which builds no P4
    p4, y3 = multipoly.p4, Poly.variable(multipoly.YVARS, "y3")
    monkeypatch.setattr(multipoly, "p4", lambda vars, args: p4(vars, args) * y3)
    report = verify_lemma(4)
    membership = [c for c in report.checks if c.id.startswith("lemma.membership.")]
    assert len(membership) == 11
    failed = [c for c in membership if c.params["k"] != "0"]
    assert len(failed) == 4
    for check in failed:
        assert not check.passed and check.expected == "member"
        assert check.actual.startswith("error: NotInSubringError: ")
        assert "Traceback" not in check.actual
    assert all(c.passed and c.actual == "member" for c in membership if c.params["k"] == "0")


def test_merged_top_class_fails_its_check(monkeypatch):
    # t^(6a+2b+c) and t^(5a+2b+3c) share the key 81 under regime one; their
    # merged coefficient is the closed form's 9, but the class has two vectors
    merged = PuiseuxPoly(REGIME_ONE, Poly(TVARS, {(6, 2, 1): 8 * 4**9, (5, 2, 3): 4**10}))
    monkeypatch.setattr(asymptotics, "substituted_q", lambda n, m, k, regime, powers: merged)
    (check,) = verify_asymptotics(0, regimes=(REGIME_ONE,)).checks
    assert check.expected == "9*t^(6a+2b+c)"
    assert check.actual == "9*t^(5a+2b+3c) (merged exponent class)"
    assert not check.passed


def test_check_records_are_read_only():
    check = _timed_check("x", {"L": "1"}, "1", lambda: "1")
    for field in check._fields:
        with pytest.raises(AttributeError):
            setattr(check, field, getattr(check, field))
    assert check.params_string() == "L=1" and check.passed


def test_shared_edge_images_are_read_only():
    # x_from_y hands out cached images; a caller cannot change what later runs read
    with pytest.raises(AttributeError):
        x_from_y("x1").terms.clear()
    with pytest.raises(TypeError):
        x_from_y("x1").terms[(1, 0, 0, 0)] = 5
    report = run_all()
    assert report.summary == {"total": 403, "passed": 403, "failed": 0}


def test_property_suite_counts_and_passes():
    report = verify_properties()
    assert report.all_passed
    projector = [c for c in report.checks if c.id.startswith("prop.projector")]
    divides = [c for c in report.checks if c.id.startswith("prop.delta_divides")]
    hom = [c for c in report.checks if c.id.startswith("prop.regime_hom")]
    assert len(projector) == 100
    assert len(divides) == 50
    assert len(hom) == 50


def _failed_actuals(report, prefix):
    return {c.actual for c in report.checks if c.id.startswith(prefix) and not c.passed}


@pytest.mark.parametrize(
    "fault, law",
    [
        # S(p) + 1 keeps no product; S(p)^2 keeps every product and no sum
        (lambda image: image + Poly.constant(TVARS, 1), "product"),
        (lambda image: image * image, "sum"),
    ],
)
def test_regime_hom_fail_names_the_regime_and_the_law(monkeypatch, fault, law):
    regime_table = verifier.regime_table

    def faulty_in_regime_two(regime):
        table = regime_table(regime)
        return table if regime.id == "one" else lambda p: fault(table(p))

    monkeypatch.setattr(verifier, "regime_table", faulty_in_regime_two)
    report = verify_properties()
    assert _failed_actuals(report, "prop.regime_hom") == {
        f"not a homomorphism: the {law} law fails in regime two"
    }
    assert len([c for c in report.checks if not c.passed]) == 50


def test_projector_fail_names_the_character(monkeypatch):
    # doubling the signed sum only: S(2S(p)) is 4|G| S(p), not 2|G| S(p), where S(p) != 0
    symmetrize = verifier.symmetrize

    def doubled_sign_sum(p, group):
        once = symmetrize(p, group)
        return once if all(a.character == 1 for a in group) else once.scale(2)

    monkeypatch.setattr(verifier, "symmetrize", doubled_sign_sum)
    report = verify_properties()
    assert _failed_actuals(report, "prop.projector") == {"not idempotent: the sign character"}
    assert report.summary["failed"] > 0


def test_report_sorted_and_summary_consistent():
    report = verify_asymptotics(2)
    keys = [(c.id, c.params_string()) for c in report.checks]
    assert keys == sorted(keys)
    summary = report.summary
    assert summary["total"] == len(report.checks)
    assert summary["passed"] + summary["failed"] == summary["total"]


def test_report_json_schema():
    report = verify_even_dims(4)
    data = report.to_json_dict()
    assert set(data) == {"suite", "checks", "summary"}
    assert set(data["summary"]) == {"total", "passed", "failed"}
    for check in data["checks"]:
        assert set(check) == {"id", "params", "expected", "actual", "pass", "elapsed_ms"}
        assert isinstance(check["pass"], bool)
        assert isinstance(check["elapsed_ms"], int)
    json.dumps(data)  # serializable


def test_report_csv_rows():
    report = verify_even_dims(2)
    rows = report.to_csv_rows()
    assert rows[0] == ["id", "params", "expected", "actual", "pass"]
    assert rows[1] == ["even.threeway.n=0", "n=0", "1", "1", "true"]


def test_exact_value_rendering_never_decimal():
    report = verify_asymptotics(1)
    for check in report.checks:
        assert "." not in check.expected.replace("*t^(", "").replace(")", "")


def test_reports_deterministic_modulo_elapsed():
    def stripped(r: Report):
        data = r.to_json_dict()
        for check in data["checks"]:
            check["elapsed_ms"] = 0
        return json.dumps(data, sort_keys=True)

    assert stripped(verify_lemma(2)) == stripped(verify_lemma(2))
    assert stripped(verify_properties()) == stripped(verify_properties())


def test_internal_error_becomes_failed_record():
    def compute():
        raise KeyError((1, 2, 3))

    record = _timed_check("internal", {}, "0", compute)
    assert not record.passed
    assert record.actual == "error: KeyError: (1, 2, 3)"


def test_suite_work_errors_are_charged_to_their_checks(monkeypatch):
    def broken(*args):
        raise KeyError("boom")

    monkeypatch.setattr(verifier, "q_alternant_row", broken)
    lemma = verify_lemma(0)
    failed = {c.id for c in lemma.checks if not c.passed}
    assert failed == {"lemma.rank.d=0", "lemma.span.d=0"}

    monkeypatch.setattr(verifier, "tet_slice", broken)
    odd = verify_odd_vanishing(1)
    failed = {c.id for c in odd.checks if not c.passed}
    # both families read the ambient slice, so the span check fails with it
    assert failed == {
        "odd.ambient_dim.L=1",
        "odd.image_dim.L=1",
        "odd.quotient_dim.L=1",
        "odd.span_eq.L=1",
    }


def test_broken_e1_certificate_becomes_failed_record(monkeypatch):
    # e1 times the alternant of (5,2,1,0) twice: two e1-rows share a pivot
    orbit_reps = diagram_spaces._orbit_reps

    def duplicated(degree, strict):
        reps = orbit_reps(degree, strict)
        return reps + reps[:1] if degree == 8 else reps

    monkeypatch.setattr(diagram_spaces, "_orbit_reps", duplicated)
    odd = verify_odd_vanishing(9)
    (record,) = [c for c in odd.checks if c.id == "odd.ambient_dim.L=9"]
    assert not record.passed
    assert record.actual.startswith("error: ArithmeticError: ")
    # every check that reads the L=9 slice fails with it, and no other check does
    failed = {c.id for c in odd.checks if not c.passed}
    readers = ("ambient_dim", "image_dim", "quotient_dim", "span_eq")
    assert failed == {f"odd.{check}.L=9" for check in readers}


def test_a_failed_image_slice_fails_every_check_that_reads_it(monkeypatch):
    def broken(*args):
        raise KeyError("boom")

    monkeypatch.setattr(verifier, "ihx_image_slice", broken)
    odd = verify_odd_vanishing(9)
    failed = {c.id for c in odd.checks if not c.passed}
    readers = ("image_dim", "quotient_dim", "span_eq")
    assert failed == {f"odd.{check}.L={legs}" for legs in range(1, 10, 2) for check in readers}


def test_odd_suite_builds_each_slice_once_per_leg_count(monkeypatch):
    calls = []
    ambient = {}  # leg count -> the slice tet_slice returned for it
    received = []  # (leg count, the slice a family was handed)

    def counted(name):
        build = getattr(verifier, name)

        def count(arg):
            # tet_slice takes the leg count; a family reads it from its ambient slice
            legs = arg if name == "tet_slice" else arg.context.legs
            calls.append((name, legs))
            space = build(arg)
            if name == "tet_slice":
                ambient[legs] = space
            else:
                received.append((legs, arg))
            return space

        return count

    for name in ("tet_slice", "ihx_image_slice", "subring_family_slice"):
        monkeypatch.setattr(verifier, name, counted(name))
    assert verify_odd_vanishing(17).all_passed
    odd = range(1, 18, 2)
    assert sorted(calls) == sorted(
        [("tet_slice", legs) for legs in odd]
        + [("ihx_image_slice", legs) for legs in odd]
        + [("subring_family_slice", legs) for legs in odd if legs <= 15]
    )
    # each family is handed the very slice that tet_slice returned for its L
    assert len(received) == 17
    assert all(arg is ambient[legs] for legs, arg in received)


def test_odd_suite_builds_one_context_per_degree(monkeypatch):
    # the families read the context of the ambient slice, whose orbit table
    # and edge powers are each built at most once, on their first read
    context = diagram_spaces._SkewSliceContext
    contexts, builds = [], {"_orbit_table": [], "edge_powers": []}
    init = context.__init__

    def counted_init(self, legs):
        contexts.append(legs)
        init(self, legs)

    def counted(name):
        build = vars(context)[name].func

        def count(self):
            builds[name].append(self)
            return build(self)

        return count

    monkeypatch.setattr(context, "__init__", counted_init)
    for name in builds:
        monkeypatch.setattr(vars(context)[name], "func", counted(name))
    assert verify_odd_vanishing(29).all_passed
    assert contexts == list(range(1, 30, 2))
    # below L = 9 the slice is 0, so no family reads a row there
    for built in builds.values():
        assert len({id(ctx) for ctx in built}) == len(built) == 11
        assert sorted(ctx.legs for ctx in built) == list(range(9, 30, 2))


def _cached_entries() -> int:
    """Entries held by every lru_cache of the package."""
    modules = [m for name, m in sys.modules.items() if name == "jd3" or name.startswith("jd3.")]
    caches = {id(v): v for m in modules for v in vars(m).values() if hasattr(v, "cache_info")}
    return sum(cache.cache_info().currsize for cache in caches.values())


def test_caches_do_not_grow_with_the_caps():
    # the fixed-size memos are filled by the smallest runs; larger caps add nothing
    verify_odd_vanishing(1)
    verify_lemma(0)
    small = _cached_entries()
    verify_odd_vanishing(41)
    verify_lemma(11)
    assert _cached_entries() == small


def test_run_all_small_config_passes_and_covers_everything(caps):
    caps(9, 6, 1, 1)
    report = run_all()
    assert report.all_passed
    assert _coverage.untouched() == frozenset()
    coverage_checks = [c for c in report.checks if c.id == "all.op_coverage"]
    assert len(coverage_checks) == 1
    assert coverage_checks[0].actual == "every operation exercised"


def test_rows_do_not_depend_on_the_order_the_suites_run_in(caps, child_env):
    # the suites share process-wide state: the lru-cached images of
    # `_x_from_y_map` and `_shared_images`, and `Packing._shared`.  Each Poly
    # is re-keyed in place by whichever reader comes first, so the five
    # suites run here in reverse order, and then `run_all`, must give the
    # rows of a fresh process
    small = (15, 12, 4, 4)
    script = (
        "import json\nfrom jd3 import verifier\n"
        f"verifier.ODD_MAX_LEGS, verifier.EVEN_MAX_LEGS, verifier.LEMMA_MAX_D, verifier.ASYM_MAX_D = {small}\n"
        "print(json.dumps([[c.id, c.expected, c.actual, c.passed] for c in verifier.run_all().checks]))"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    odd, even, lemma, asym = small
    reports = [verify_properties(), verify_asymptotics(asym), verify_lemma(lemma)]
    reports += [verify_even_dims(even), verify_odd_vanishing(odd)]
    assert all(report.all_passed for report in reports)
    caps(*small)
    rows = [[c.id, c.expected, c.actual, c.passed] for c in run_all().checks]
    assert len(rows) > 100 and rows == json.loads(proc.stdout)


def test_run_config_holds_only_the_property_seed(caps):
    # the caps are the paper's constants; a run is configured by its property seed alone
    caps(1, 0, 0, 0)
    assert RunConfig._fields == ("property_seed",)
    assert run_all(RunConfig(property_seed=1)).all_passed


def test_every_poly_a_run_builds_holds_int_coefficients(monkeypatch, caps):
    # Poly._raw skips the constructor's coefficient check, and the packed
    # products of multiply, power and substitute never pass through it, so
    # every Poly and every packed product of a small run is kept and read
    # once the run is over
    raw = Poly._raw.__func__
    mul_packed = multipoly._mul_packed
    poly_mul = Poly.__mul__
    built, products, muls = [], [], []

    def kept_raw(cls, vars, terms, *layout):
        built.append(raw(cls, vars, terms, *layout))
        return built[-1]

    def kept_mul_packed(a, b):
        products.append(mul_packed(a, b))
        return products[-1]

    def counted_mul(a, b):
        muls.append(None)
        return poly_mul(a, b)

    monkeypatch.setattr(Poly, "_raw", classmethod(kept_raw))
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(multipoly, "_mul_packed", kept_mul_packed)
    caps(11, 8, 2, 2)
    assert run_all().all_passed
    # every Poly product runs one packed product, which was kept
    assert built and muls
    assert len(products) >= len(muls)
    bad = [c for t in [p.terms for p in built] + products for c in t.values() if type(c) is not int]
    assert bad == []


def test_run_all_corrupt_hook_reports_failures(wrong_closed_form, caps):
    caps(1, 2, 0, 0)
    report = run_all()
    assert not report.all_passed
    failing = [c for c in report.checks if not c.passed]
    assert all(c.id.startswith("even.threeway") for c in failing)


def test_suites_reject_negative_caps():
    with pytest.raises(ValueError):
        verify_odd_vanishing(-1)
    with pytest.raises(ValueError):
        verify_even_dims(-2)
    with pytest.raises(ValueError):
        verify_lemma(-1)
    with pytest.raises(ValueError):
        verify_asymptotics(-1)
