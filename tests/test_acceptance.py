"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every criterion prints a single PASS/FAIL line.  All tolerances are
exact equality over GF(2).

Criterion 10 asserts the product identity on the abelian testbeds with
one exception: the lie-comm comparison (ext-in-sym) on the
two-dimensional abelian algebra with trivial coefficients, where the
identity is provably false.  Every differential vanishes there, so the
second page carries the full relative dimensions (n+3) - C(2, n+2) in
the p = 0 column, while the symmetric Betti numbers are (q+1); a
product shape would need a graded factor with generating function
2 - x^2, whose degree-two coefficient is negative.  For that
sub-check the test asserts the closed forms the proof derives for every
entry with p+q <= 4, including the mismatch at p = 0, q >= 2.
"""

import json
from functools import lru_cache
from math import comb

import numpy as np

from commcoh.algebra import (
    classify_algebra,
    flambda_module,
    leibniz_kernel,
    quotient_algebra,
)
from commcoh.cochain import Flavor, InclusionPair, build_tower, insertion_matrix, lie_derivative_matrix
from commcoh.cohomology import betti_table
from commcoh.comparison import (
    build_relative_complex,
    comparison_filtration,
    flavor_tables,
    full_vanishing_check,
    long_exact_sequence_check,
    vanishing_propagation_report,
    verify_e2_product,
)
from commcoh.catalog import line_module_instances, survey_enumerate
from commcoh.cli import run
from commcoh.spectral import (
    compute_pages,
    convergence_check,
    e2_closed_form_check,
    infinity_entries,
    subalgebra_filtration,
)

from conftest import catalog, random_comm_lie_table, random_subalgebra, random_valid_module

CATALOG = ("N", "a", "abelian1", "abelian2", "abelian3", "heis3")
LIE_CATALOG = ("a", "abelian1", "abelian2", "abelian3", "heis3")


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[C{num:02d}] {status} {desc}")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures[:6])


@lru_cache(maxsize=None)
def _random_pairs(count=100, seed=1234):
    rng = np.random.default_rng(seed)
    pairs = []
    dims = [1] * 30 + [2] * 50 + [3] * 20
    for i in range(count):
        d = dims[i % len(dims)]
        t = random_comm_lie_table(rng, d)
        pairs.append((t, random_valid_module(rng, t)))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _hs_filtration(name, sub, module, n_max):
    entry = catalog(name)
    return subalgebra_filtration(
        entry.table, entry.subspaces[sub], entry.modules[module], n_max
    )


@lru_cache(maxsize=None)
def _rel(name, pair, module, n_rel):
    entry = catalog(name)
    return build_relative_complex(pair, entry.table, entry.modules[module], n_rel)


@lru_cache(maxsize=None)
def _tables(name, module, n_max):
    entry = catalog(name)
    return flavor_tables(entry.table, entry.modules[module], n_max)


@lru_cache(maxsize=None)
def _product_report(name, pair, module, n_max):
    entry = catalog(name)
    return verify_e2_product(pair, entry.table, entry.modules[module], n_max, _tables(name, module, n_max))


def _pairs_for(name):
    if classify_algebra(catalog(name).table).is_lie:
        return tuple(InclusionPair)
    return (InclusionPair.SYM_IN_TENSOR,)


def test_c01_differential_squares_to_zero():
    failures = []
    for name in CATALOG:
        entry = catalog(name)
        is_lie = classify_algebra(entry.table).is_lie
        for flavor in Flavor:
            if flavor is Flavor.EXT and not is_lie:
                continue
            tower = build_tower(flavor, entry.table, entry.modules["trivial"], 6)
            if not tower.check_composition():
                failures.append((name, flavor.value))
    pairs = _random_pairs()
    assert len(pairs) >= 100
    for idx, (t, mod) in enumerate(pairs):
        if mod.dim > 2:
            failures.append((idx, "module too big"))
        flavors = [Flavor.SYM, Flavor.TENSOR]
        if classify_algebra(t).is_lie:
            flavors.append(Flavor.EXT)
        for flavor in flavors:
            tower = build_tower(flavor, t, mod, 6)
            if not tower.check_composition():
                failures.append((idx, flavor.value))
    _report(1, "d after d is zero on catalog and 100 random pairs, degrees <= 6", failures)


def test_c02_cartan_relation():
    failures = []
    instances = [
        (catalog(name).table, catalog(name).modules["trivial"], name)
        for name in CATALOG
    ] + [(t, mod, f"random{idx}") for idx, (t, mod) in enumerate(_random_pairs()[:25])]
    for table, mod, label in instances:
        d = table.dim
        tower = build_tower(Flavor.SYM, table, mod, 6)
        for xi in range(d):
            x = np.eye(d, dtype=np.uint8)[xi]
            for n in range(6):
                lx = lie_derivative_matrix(Flavor.SYM, table, mod, x, n)
                rhs = insertion_matrix(Flavor.SYM, d, mod.dim, x, n + 1) @ tower.differential(n)
                if n > 0:
                    rhs = rhs + (tower.differential(n - 1) @ insertion_matrix(Flavor.SYM, d, mod.dim, x, n))
                if lx != rhs:
                    failures.append((label, xi, n))
    _report(2, "Cartan relation holds for all basis elements, degrees <= 5", failures)


def test_c03_filtration_compatibility():
    failures = []
    # pairing a filtered tower checks its d-compatibility
    for name, sub in (("N", "e"), ("a", "e"), ("a", "h"), ("heis3", "z"), ("heis3", "x")):
        try:
            compute_pages(_hs_filtration(name, sub, "trivial", 5))
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append((name, sub, exc))
    rng = np.random.default_rng(77)
    for i in range(10):
        d = int(rng.integers(2, 4))
        t = random_comm_lie_table(rng, d)
        h = random_subalgebra(rng, t)
        mod = random_valid_module(rng, t)
        try:
            compute_pages(subalgebra_filtration(t, h, mod, 5))
        except Exception as exc:  # pragma: no cover
            failures.append(("random", i, exc))
    # comparison filtrations, all three kinds per algebra class
    for name in ("N", "a", "abelian1", "abelian2"):
        for pair in _pairs_for(name):
            try:
                compute_pages(comparison_filtration(pair, _rel(name, pair, "trivial", 5)))
            except Exception as exc:  # pragma: no cover
                failures.append((name, pair.value, exc))
    try:
        compute_pages(comparison_filtration(
            InclusionPair.SYM_IN_TENSOR,
            _rel("heis3", InclusionPair.SYM_IN_TENSOR, "trivial", 4),
        ))
    except Exception as exc:  # pragma: no cover
        failures.append(("heis3", exc))
    _report(3, "filtrations are compatible with the differential, degrees <= 5", failures)


def test_c04_page_identifications():
    failures = []
    for name in ("N", "a", "abelian2", "abelian3"):
        entry = catalog(name)
        for module in ("trivial", "flambda"):
            ft = subalgebra_filtration(entry.table, entry.subspaces[entry.ideals[0]], entry.modules[module], 7)
            rep = e2_closed_form_check(ft, compute_pages(ft))
            for row in rep.mismatches():
                if row[1] + row[2] <= 5:
                    failures.append((name, module, row))
    _report(4, "page entries match the closed forms for ideals, p+q <= 5", failures)


def test_c05_strong_convergence():
    failures = []
    for name, sub in (("N", "e"), ("a", "e"), ("a", "h"), ("heis3", "z"),
                      ("abelian2", "e0"), ("abelian3", "e0")):
        for module in ("trivial", "flambda"):
            ft = _hs_filtration(name, sub, module, 8)
            report = convergence_check(ft)
            for n, row in report.per_degree.items():
                if n <= 6 and not row[2]:
                    failures.append((name, sub, module, n, row))
    deep = (
        ("a", InclusionPair.SYM_IN_TENSOR),
        ("N", InclusionPair.SYM_IN_TENSOR),
        ("abelian2", InclusionPair.EXT_IN_TENSOR),
    )
    for name, pair in deep:
        ft = comparison_filtration(pair, _rel(name, pair, "trivial", 8))
        report = convergence_check(ft)
        for n, row in report.per_degree.items():
            if n <= 6 and not row[2]:
                failures.append((name, pair.value, n, row))
    ft = comparison_filtration(
        InclusionPair.SYM_IN_TENSOR,
        _rel("heis3", InclusionPair.SYM_IN_TENSOR, "trivial", 4),
    )
    if not convergence_check(ft).ok:
        failures.append(("heis3", "comparison"))
    _report(5, "stable page sums equal cohomology in every filtered tower, n <= 6", failures)


def test_c06_worked_examples_two_routes():
    failures = []
    flags = {}
    for name in ("N", "a"):
        entry = catalog(name)
        direct = betti_table(
            build_tower(Flavor.SYM, entry.table, entry.modules["trivial"], 10)
        )
        ft = _hs_filtration(name, "e", "trivial", 10)
        inf = infinity_entries(ft)
        for n in range(9):
            total = sum(inf[(p, n - p)] for p in range(n + 1))
            if total != direct[n]:
                failures.append((name, n, total, direct[n]))
        flags[name] = [
            (n, direct[n], n + 1 if n % 4 == 0 else 0) for n in range(9)
        ]
    # informational: where the exact computation meets the published table
    for name, rows in flags.items():
        agree = [n for n, got, table in rows if got == table]
        disagree = [n for n, got, table in rows if got != table]
        print(f"    [C06:{name}] closed-form table agrees at {agree}, disagrees at {disagree}")
        assert 1 in disagree  # the degree-one defect the derivation predicts
    _report(6, "direct and stable-page routes agree for the worked examples, n <= 8", failures)


@lru_cache(maxsize=None)
def _survey_iso(d):
    return survey_enumerate(d, up_to_iso=True)


def test_c07_one_dimensional_vanishing():
    failures = []
    abelian2_seen = False
    instance_count = 0
    for d in (1, 2, 3):
        for table in _survey_iso(d).rep_tables():
            for line, lam in line_module_instances(table):
                instance_count += 1
                mod = flambda_module(table, lam)
                bt = betti_table(build_tower(Flavor.SYM, table, mod, 7))
                if any(bt[n] != 0 for n in range(7)):
                    failures.append((d, table.c.tolist(), lam.tolist(), bt.dims))
                if d == 2 and not table.c.any():
                    abelian2_seen = True
    if not abelian2_seen:
        failures.append("abelian(2) instance missing")
    assert instance_count > 0
    _report(7, "one-dimensional ideals acting by one kill all symmetric cohomology, n <= 6", failures)


def test_c08_vanishing_propagation():
    failures = []
    observed = 0
    for name in CATALOG:
        entry = catalog(name)
        mods = [("trivial", 8), ("flambda", 8)]
        if entry.table.dim <= 2:
            mods += [("adjoint", 6), ("coadjoint", 6)]
        else:
            mods += [("adjoint", 5), ("coadjoint", 5)]
        for module, depth in mods:
            reports = vanishing_propagation_report(_tables(name, module, depth))
            for rep in reports:
                if rep.vacuous:
                    continue
                observed += 1
                if not rep.ok:
                    failures.append((name, module, rep.hypothesis, rep.conclusion))
    assert observed > 0
    # full-vanishing instances: Lie algebras with a line ideal acting by one
    instances = 0
    for name in LIE_CATALOG:
        entry = catalog(name)
        for line, lam in line_module_instances(entry.table):
            instances += 1
            mod = flambda_module(entry.table, lam)
            report = full_vanishing_check(entry.table, mod, 7)
            if not report.ok:
                failures.append((name, lam.tolist(), report.tables))
    if instances == 0:
        failures.append("no full-vanishing instance found")
    _report(8, "vanishing windows propagate and line-ideal instances vanish everywhere", failures)


def test_c09_long_exact_sequences():
    failures = []
    for name in ("N", "a", "abelian1", "abelian2"):
        for pair in _pairs_for(name):
            for module in ("trivial", "flambda"):
                rel = _rel(name, pair, module, 5)
                les = long_exact_sequence_check(rel)
                if not les.ok:
                    failures.append((name, pair.value, module, les.failures()[:3]))
    les = long_exact_sequence_check(_rel("heis3", InclusionPair.SYM_IN_TENSOR, "trivial", 3))
    if not les.ok:
        failures.append(("heis3", les.failures()[:3]))
    _report(9, "long exact sequences are exact at every node, degrees <= 5", failures)


def test_c10_second_page_products():
    """The identity holds on the abelian testbeds except abelian2, ext-in-sym, trivial.

    1. Every differential vanishes there, so E_2 is the relative complex in the p = 0 column: (q+3) - C(2, q+2) = (2, 4, 5, 6, 7).
    2. hr = (2, 0, 0, ...) and partner[q] = q+1, so the predicted (0, q) entry is 2(q+1) = (2, 4, 6, 8, 10).
    3. The entries differ for every q >= 2, and no graded factor G helps: G = (2, 0, -1) from 3*2 + 2*0 + G[2] = 5.
    """
    failures = []
    # both sides vanish identically on the one-dimensional abelian algebra
    for pair in InclusionPair:
        rep = _product_report("abelian1", pair, "trivial", 8)
        failures += [("abelian1", pair.value, e) for e in rep.mismatches() if e[0] + e[1] <= 4]
    for pair in InclusionPair:
        if pair is InclusionPair.EXT_IN_SYM:
            continue
        rep = _product_report("abelian2", pair, "trivial", 8)
        failures += [("abelian2", pair.value, e) for e in rep.mismatches() if e[0] + e[1] <= 4]
    # abelian2 lie-comm with trivial coefficients: the closed forms of the proof above
    rep = _product_report("abelian2", InclusionPair.EXT_IN_SYM, "trivial", 8)
    want_hr = (2,) + (0,) * max(4, len(rep.hr) - 1)  # CR dims (d, 0, 0, ...), d = 2
    if rep.hr != want_hr:
        failures.append(("abelian2/lie-comm hr", rep.hr))
    want = {}
    for n in range(5):
        for p in range(n + 1):
            q = n - p
            computed = (q + 3) - comb(2, q + 2) if p == 0 else 0
            predicted = want_hr[p] * (q + 1)
            want[(p, q)] = (p, q, computed, predicted, not (p == 0 and q >= 2))
    got = {(e[0], e[1]): e for e in rep.entries if e[0] + e[1] <= 4}
    if got != want:
        failures.append(("abelian2/lie-comm entries", sorted(set(got.values()) ^ set(want.values()))))
    if not rep.convergence_ok or rep.ok:
        failures.append(("abelian2/lie-comm", "convergence_ok", rep.convergence_ok, "ok", rep.ok))
    # with the vanishing line module both sides are zero in every entry, so it holds as 0 = 0
    rep = _product_report("abelian2", InclusionPair.EXT_IN_SYM, "flambda", 8)
    failures += [("abelian2/flambda", e) for e in rep.mismatches() if e[0] + e[1] <= 4]
    # worked examples: computed and reported, mismatches informational
    informational = []
    for name, pairs in (("N", (InclusionPair.SYM_IN_TENSOR,)), ("a", tuple(InclusionPair))):
        for pair in pairs:
            rep = _product_report(name, pair, "trivial", 8)
            if not rep.convergence_ok:
                failures.append((name, pair.value, "convergence"))
            informational += [(name, pair.value, e) for e in rep.mismatches()]
    if informational:
        print(f"    [C10] informational product mismatches on worked examples: {len(informational)}")
    _report(
        10,
        "second pages factor as products on the abelian testbeds, except the proven "
        "abelian2 lie-comm mismatch, asserted in closed form, p+q <= 4",
        failures,
    )


def test_c11_structural_facts():
    failures = []
    n = catalog("N")
    leib = leibniz_kernel(n.table)
    if leib.dim != 1 or not leib.contains_vector(np.array([1, 0])):
        failures.append(("leibniz kernel", leib.basis.to_dense().tolist()))
    split = quotient_algebra(n.table, leib)
    if split.q_table.c.any():
        failures.append("quotient by the kernel is not abelian")
    cls_n = classify_algebra(n.table)
    if not (cls_n.commutative and not cls_n.alternating and cls_n.jacobi):
        failures.append(("classification N", cls_n))
    cls_a = classify_algebra(catalog("a").table)
    if not (cls_a.commutative and cls_a.alternating and cls_a.jacobi):
        failures.append(("classification a", cls_a))
    s1 = survey_enumerate(1)
    if s1.candidate_count != 2:
        failures.append(("survey d=1 candidates", s1.candidate_count))
    if s1.valid_count != 1:
        failures.append(("survey d=1 valid", s1.valid_count))
    runs = [run(["survey", "--dim", "2", "--up-to-iso", "--jobs", j]) for j in ("1", "2", "3")]
    counts = {json.dumps(report["payload"], sort_keys=True) for report, _ in runs}
    if len(counts) != 1 or any(code for _, code in runs):
        failures.append(("survey d=2 instability", counts))
    _report(11, "structural facts: kernel, flags, and stable survey counts", failures)
