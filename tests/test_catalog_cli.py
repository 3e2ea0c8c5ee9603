"""Tests for the catalog, algebra files, survey, and CLI reports."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import commcoh.catalog as catalog_module
import commcoh.cli as cli
import commcoh.cohomology as cohomology_module
from commcoh.algebra import BracketTable, change_basis, classify_algebra
from commcoh.catalog import (
    AlgebraFileError,
    CatalogEntry,
    catalog_names,
    line_module_instances,
    load_catalog,
    parse_algebra_file,
    serialize_algebra_file,
    survey_enumerate,
)
from commcoh.cli import main, run
from commcoh.gf2 import GF2Error

from conftest import bench_workloads, catalog, random_invertible, survey, traced
from survey_oracle import (
    line_module_instances_loop,
    oracle_survivors,
    transform_matrices_loop,
)


class TestCatalog:
    def test_all_names_load(self):
        for name in catalog_names():
            entry = load_catalog(name)
            assert entry.table.dim >= 1
            cls = classify_algebra(entry.table)
            assert cls.commutative and cls.jacobi

    def test_worked_examples(self):
        n = catalog("N")
        assert n.table.c[1, 1].tolist() == [1, 0]
        a = catalog("a")
        assert a.table.c[0, 1].tolist() == [0, 1]
        assert a.table.c[1, 0].tolist() == [0, 1]

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(GF2Error, match="abelian2"):
            load_catalog("nope")

    @pytest.mark.parametrize("name", ["abelian0", "abelianx", "abelian-1", "abelian4", "abelian100000"])
    def test_names_outside_the_six_are_refused(self, name, capsys):
        # no number is parsed out of a name: abelian1..3 are three entries
        assert main(["check", "--algebra", f"catalog:{name}"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err.startswith(f"unknown catalog algebra {name!r}")

    def test_flambda_modules_valid(self):
        # each catalog functional kills the derived span and is nonzero
        for name in catalog_names():
            entry = load_catalog(name)
            lam = entry.modules["flambda"].rho[:, 0, 0]
            assert lam.any()


class TestAlgebraFiles:
    SAMPLE = """
# sample with everything
algebra demo
dim 2
basis e f
bracket f f = e
module reg dim 2
action reg e = 01 00
action reg f = 00 10
subspace h = 10
subspace k = 10 01
"""

    def test_round_trip(self):
        fa = parse_algebra_file(self.SAMPLE)
        assert fa.name == "demo" and fa.labels == ("e", "f")
        assert fa.table.c[1, 1].tolist() == [1, 0]
        text = serialize_algebra_file(fa)
        assert parse_algebra_file(text) == fa

    def test_round_trip_defaults(self):
        fa = parse_algebra_file("dim 3\nbracket b0 b1 = b2\nbracket b1 b0 = b2\n")
        assert parse_algebra_file(serialize_algebra_file(fa)) == fa

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("bracket e f = e\n", "dim must come"),
            ("dim 2\nbracket e f = e\n", "unknown basis label"),
            ("dim 2\nbasis e\n", "basis wants 2"),
            ("dim 2\nsubspace h = 1\n", "must be 2 bits"),
            ("dim 2\naction m b0 = 1\n", "not declared"),
            ("dim 2\nwhat now\n", "unknown directive"),
            ("", "missing dim"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(AlgebraFileError, match=fragment):
            parse_algebra_file(text)

    def test_round_trip_catalog_algebras(self):
        for name in ("N", "a", "heis3"):
            entry = catalog(name)
            fa = CatalogEntry(entry.name, entry.labels, entry.table, {}, dict(entry.subspaces))
            assert parse_algebra_file(serialize_algebra_file(fa)) == fa


class TestSurvey:
    def test_dim_one_counts(self):
        res = survey_enumerate(1)
        assert res.candidate_count == 2
        # the square bracket [e,e] = e fails the Jacobi identity, so only
        # the abelian line survives the filter
        assert res.valid_count == 1

    def test_dim_two_counts_stable(self):
        a = survey_enumerate(2, up_to_iso=True)
        b = survey_enumerate(2, up_to_iso=True)
        assert (a.candidate_count, a.valid_count, a.orbit_count) == (
            b.candidate_count,
            b.valid_count,
            b.orbit_count,
        )
        assert a.candidate_count == 64

    def test_worker_count_invariance(self):
        # --jobs is accepted and changes nothing: the survey runs in one process
        runs = [run(["survey", "--dim", "2", "--up-to-iso", "--jobs", j]) for j in ("1", "2", "3")]
        assert all(code == 0 for _, code in runs)
        assert len({json.dumps(r["payload"], sort_keys=True) for r, _ in runs}) == 1
        assert len({r["input_digest"] for r, _ in runs}) == 1
        res = survey_enumerate(2, up_to_iso=True)
        assert runs[0][0]["payload"]["valid"] == res.valid_count
        assert runs[0][0]["payload"]["orbits"] == res.orbit_count

    def test_chunk_splits_do_not_change_survivors(self):
        chunk = catalog_module._survey_chunk
        total = 1 << 18
        whole = chunk(3, 0, total)
        thirds = [int(b) for b in np.linspace(0, total, 4, dtype=np.int64)]
        inside = [0, 8 * 4000 + 3, 8 * 4000 + 6, total]  # two cuts inside one byte of a plane
        for bounds in ([0, 7, total], [0, 12000, total], [0, 7, 12000, total], thirds, inside):
            parts = [chunk(3, a, b) for a, b in zip(bounds, bounds[1:])]
            assert np.array_equal(np.concatenate(parts, axis=0), whole)
        # all of d = 2, split inside the first byte of a plane
        parts = [chunk(2, 0, 7), chunk(2, 7, 64)]
        assert np.array_equal(np.concatenate(parts, axis=0), survey_enumerate(2).tables)

    @pytest.mark.parametrize("d", [1, 2])
    def test_bit_sliced_filter_matches_oracle_on_every_candidate(self, d):
        total = survey_enumerate(d).candidate_count
        got = catalog_module._survey_chunk(d, 0, total)
        assert np.array_equal(got, oracle_survivors(d, 0, total))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, (1 << 18) - 1), st.integers(1, 20000))
    @example(0, 1)
    @example(13, 130)  # both ends inside one byte of a plane
    @example(65, 19990)  # neither end a multiple of 8 or 64
    @example((1 << 18) - 19997, 19997)  # the last candidate
    @example(3647, 1)  # a survivor, the last of its byte: start rounds down by 7
    def test_bit_sliced_filter_matches_oracle_on_dim_three_ranges(self, start, length):
        stop = min(start + length, 1 << 18)
        got = catalog_module._survey_chunk(3, start, stop)
        assert np.array_equal(got, oracle_survivors(3, start, stop))

    def test_full_dim_three_survey(self):
        res = survey_enumerate(3, up_to_iso=True)
        assert (res.candidate_count, res.valid_count, res.orbit_count) == (262144, 288, 11)
        for c in res.tables:
            assert classify_algebra(BracketTable(c)).jacobi
        # bit t*3 + m of a candidate index is c[i, j, m] of free pair t
        pairs = catalog_module._free_pairs(3)
        codes = sum(
            res.tables[:, i, j, m].astype(np.int64) << (t * 3 + m)
            for t, (i, j) in enumerate(pairs)
            for m in range(3)
        )
        assert np.array_equal(catalog_module._candidate_block(3, codes), res.tables)
        rejected = np.setdiff1d(np.arange(1 << 18), codes)
        sample = np.random.default_rng(8).choice(rejected, size=2000, replace=False)
        for c in catalog_module._candidate_block(3, sample):
            assert not classify_algebra(BracketTable(c)).jacobi

    def test_dim_three_survey_memory(self):
        # the planes are made from byte indices, so no array holds all 2^18 indices
        _, _, peak = traced(lambda: survey_enumerate(3, up_to_iso=True))
        assert peak < 2 << 20

    def test_survey_calls_no_float_linear_algebra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("float LAPACK called")

        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        for d, orbits in ((1, 1), (2, 3), (3, 11)):
            assert survey_enumerate(d, up_to_iso=True).orbit_count == orbits

    @pytest.mark.parametrize("d, order", [(1, 1), (2, 6), (3, 168)])
    def test_gl_group_and_inverses(self, d, order):
        g, ginv = catalog_module._gl_group(d)
        assert len(g) == len(ginv) == order
        eye = np.eye(d, dtype=np.int64)
        for a, b in zip(g, ginv):
            assert np.array_equal(a.astype(np.int64) @ b % 2, eye)
            assert np.array_equal(b.astype(np.int64) @ a % 2, eye)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_transform_matrices_match_loop(self, d):
        got = catalog_module._transform_matrices(d)
        want = transform_matrices_loop(d)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_against_naive_filter(self):
        # independent reimplementation: triple loop over all candidates
        def naive_valid_count(d):
            count = 0
            pairs = [(i, j) for i in range(d) for j in range(i, d)]
            nbits = len(pairs) * d
            for code in range(1 << nbits):
                c = np.zeros((d, d, d), dtype=np.int64)
                for t, (i, j) in enumerate(pairs):
                    for k in range(d):
                        bit = (code >> (t * d + k)) & 1
                        c[i, j, k] = bit
                        c[j, i, k] = bit
                ok = True
                for i in range(d):
                    for j in range(d):
                        for k in range(d):
                            s = c[j, k] @ c[i] + c[k, i] @ c[j] + c[i, j] @ c[k]
                            if (s % 2).any():
                                ok = False
                if ok:
                    count += 1
            return count

        assert survey_enumerate(1).valid_count == naive_valid_count(1)
        assert survey_enumerate(2).valid_count == naive_valid_count(2)

    def test_all_valid_classify(self):
        res = survey_enumerate(2)
        for c in res.tables:
            cls = classify_algebra(BracketTable(c))
            assert cls.commutative and cls.jacobi

    def test_orbit_reps_invariant_under_basis_change(self):
        rng = np.random.default_rng(40)
        res = survey_enumerate(2, up_to_iso=True)
        for table in res.rep_tables():
            p = random_invertible(rng, 2)
            assert classify_algebra(change_basis(table, p)) == classify_algebra(table)

    def test_enumeration_bound(self):
        with pytest.raises(GF2Error, match="bound"):
            survey_enumerate(4)

    def test_line_instances(self):
        assert line_module_instances(catalog("N").table) == []
        assert len(line_module_instances(catalog("abelian2").table)) > 0

    def test_line_instances_match_bracket_loop(self):
        # the same pairs in the same order on every survey table and the catalog
        tables = [t for d in (1, 2, 3) for t in survey(d).rep_tables()]
        for table in tables + [catalog(name).table for name in catalog_names()]:
            got = line_module_instances(table)
            want = line_module_instances_loop(table)
            assert len(got) == len(want), table.c.tolist()
            for (line, lam), (wline, wlam) in zip(got, want):
                assert line == wline
                assert lam.dtype == wlam.dtype and np.array_equal(lam, wlam)


def _strip_volatile(report):
    report = dict(report)
    report.pop("generated_at", None)
    return report


class TestCLI:
    def test_check_exit_zero(self, capsys):
        assert main(["check", "--algebra", "catalog:N"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["classification"]["alternating"] is False
        assert out["payload"]["leibniz_kernel"]["dim"] == 1

    def test_determinism(self):
        r1, c1 = run(["cohomology", "--algebra", "catalog:a", "--max-degree", "5",
                      "--flavor", "sym,ext,tensor"])
        r2, c2 = run(["cohomology", "--algebra", "catalog:a", "--max-degree", "5",
                      "--flavor", "sym,ext,tensor"])
        assert c1 == c2 == 0
        assert json.dumps(_strip_volatile(r1), sort_keys=True) == json.dumps(
            _strip_volatile(r2), sort_keys=True
        )

    def test_main_parses_argv_once(self, monkeypatch, capsys):
        parsed = []
        fresh = cli.build_parser

        def counting_parser():
            parser = fresh()
            parse = parser.parse_args
            parser.parse_args = lambda argv=None: parsed.append(argv) or parse(argv)
            return parser

        monkeypatch.setattr(cli, "build_parser", counting_parser)
        argv = ["cohomology", "--algebra", "catalog:N", "--max-degree", "3", "--format", "csv"]
        assert main(argv) == 0
        assert parsed == [argv]
        assert capsys.readouterr().out.startswith("flavor,degree,dim")
        report, code = run(argv)
        assert code == 0 and report["payload"]["tables"]["sym"] == [1, 1, 0, 0]
        assert len(parsed) == 2

    @pytest.mark.parametrize("argv", [
        ("cohomology",),
        ("hs-ss", "--ideal", "h"),
        ("compare",),
        ("les",),
    ], ids=lambda argv: argv[0])
    def test_each_input_is_resolved_once(self, tmp_path, monkeypatch, argv):
        # the digest and the handler share the module and span the command resolves
        path = tmp_path / "alg.txt"
        path.write_text("dim 2\nbasis e f\nbracket f f = e\nmodule m dim 2\n"
                        "action m f = 01 00\nsubspace h = 10\n")
        calls = {"_resolve_module": 0, "_resolve_subspace": 0}
        for name in calls:
            resolve = getattr(cli, name)

            def counted(*a, name=name, resolve=resolve):
                calls[name] += 1
                return resolve(*a)

            monkeypatch.setattr(cli, name, counted)
        report, code = run([argv[0], "--algebra", str(path), "--module", "m",
                            "--max-degree", "3", *argv[1:]])
        assert code == 0, report
        assert calls == {"_resolve_module": 1, "_resolve_subspace": int(argv[0] == "hs-ss")}

    def test_unknown_catalog_is_input_error(self, capsys):
        assert main(["check", "--algebra", "catalog:nope"]) == 1

    def test_bad_file_is_input_error(self, tmp_path):
        f = tmp_path / "bad.alg"
        f.write_text("dim 2\nbroken line\n")
        report, code = run(["check", "--algebra", str(f)])
        assert code == 1 and "line" in report["error"]

    @pytest.mark.parametrize("text", ["dim 3000\n", "dim 2\nmodule m dim 100000\n"])
    def test_oversized_file_is_refused_before_allocation(self, tmp_path, text):
        # the bracket table of dim 3000 would take 27 GB, the actions of
        # module m 20 GB; both are refused before anything is allocated
        f = tmp_path / "big.alg"
        f.write_text(text)
        (report, code), _, peak = traced(lambda: run(["check", "--algebra", str(f)]))
        assert code == 1 and "table over" in report["error"]
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "command",
        [["cohomology"], ["compare"], ["les"], ["hs-ss", "--ideal", "h"]],
        ids=["cohomology", "compare", "les", "hs-ss"],
    )
    def test_bad_file_module_is_input_error(self, tmp_path, capsys, command):
        # a module declared in the file that breaks the module axiom is bad
        # input, refused with exit 1 like a table failing its axioms; `check`
        # still reports the failed axiom
        f = tmp_path / "badmod.alg"
        f.write_text(
            "dim 3\nbasis x y z\nbracket x y = z\nbracket y x = z\nsubspace h = 001\n"
            "module m dim 1\naction m z = 1\n"
        )
        assert main([*command, "--algebra", str(f), "--module", "m", "--max-degree", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {"error": "axiom left-module fails on basis pair (0, 1)"}
        report, _ = run(["check", "--algebra", str(f)])
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["module-axioms[m]"]

    @pytest.mark.parametrize(
        "command",
        [["check"], ["cohomology"], ["compare"], ["les", "--module", "adjoint"], ["hs-ss", "--ideal", "h"]],
        ids=["check", "cohomology", "compare", "les", "hs-ss"],
    )
    def test_zero_dimensional_algebra_is_input_error(self, tmp_path, command):
        # a file of dim 0 is refused as it is read, by every file command
        f = tmp_path / "zero.alg"
        f.write_text("dim 0\n")
        report, code = run([*command, "--algebra", str(f)])
        assert code == 1 and report["error"].endswith("line 1: dim must be at least 1")

    def test_les_on_zero_dimensional_module(self, tmp_path):
        # a module with no coordinates has no weight part: every node is exact
        f = tmp_path / "zmod.alg"
        f.write_text("dim 2\nbasis x y\nbracket x x = y\nmodule z dim 0\n")
        report, code = run(["les", "--algebra", str(f), "--module", "z", "--max-degree", "2"])
        assert code == 0 and all(c["passed"] for c in report["checks"])
        nodes = report["payload"]["sequences"]["comm-leibniz"]["nodes"]
        assert len(nodes) == 11 and all(ok for _, ok in nodes)

    @pytest.mark.parametrize(
        "command",
        [["hs-ss", "--subalgebra", "000"], ["hs-ss", "--ideal", "000"], ["cohomology"], ["compare"], ["les"]],
        ids=["hs-ss-subalgebra", "hs-ss-ideal", "cohomology", "compare", "les"],
    )
    def test_rank_zero_grading_with_no_coefficients(self, tmp_path, command):
        # an all-zero span, or the ungraded heis3 basis, has a grading of rank
        # 0; with a module of dim 0 every coordinate weight array is empty,
        # and each command answers the empty sweep with every check passed
        wl = bench_workloads()
        f = tmp_path / "ungraded.alg"
        f.write_text(wl.heis3_file(*wl.draw_basis(1, 3)))
        algebra = "catalog:heis3" if command[0] == "hs-ss" else str(f)
        report, code = run([*command, "--algebra", algebra, "--module", "trivial:0", "--max-degree", "3"])
        assert code == 0 and report["checks"] and all(c["passed"] for c in report["checks"])

    @pytest.mark.parametrize(
        "text",
        [
            "dim 1\nbasis x\nbracket x x = x\nsubspace h = 1\n",
            "dim 3\nbasis x y z\nbracket x y = z\nbracket y x = z\n"
            "bracket x z = x\nbracket z x = x\nsubspace h = 100\n",
        ],
        ids=["dim1", "dim3"],
    )
    @pytest.mark.parametrize(
        "command,message",
        [
            (["cohomology"], "sym flavor needs a commutative Jacobi table (jacobi fails)"),
            (["hs-ss", "--subalgebra", "h"], "sym flavor needs a commutative Jacobi table (jacobi fails)"),
            (["compare"], "sym-in-tensor needs a commutative Lie algebra"),
            (["les"], "sym-in-tensor needs a commutative Lie algebra"),
        ],
        ids=["cohomology", "hs-ss", "compare", "les"],
    )
    def test_table_failing_jacobi_is_input_error(self, tmp_path, capsys, text, command, message):
        # a commutative table that fails Jacobi is bad input, not a failed
        # internal check; `check` still reports its verdicts
        f = tmp_path / "nonjacobi.alg"
        f.write_text(text)
        argv = [*command, "--algebra", str(f), "--max-degree", "3"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {"error": message}
        report, code = run(["check", "--algebra", str(f)])
        assert code == 0 and report["payload"]["classification"]["jacobi"] is False

    def test_out_of_memory_is_its_own_exit_code(self, monkeypatch, capsys):
        # a failed allocation is neither bad input (1) nor a failed check (2)
        message = "Unable to allocate 335. MiB for an array with shape (59049, 743) and data type uint64"

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cohomology_module, "betti_table", exhausted)
        argv = ["cohomology", "--algebra", "catalog:heis3", "--flavor", "tensor", "--max-degree", "11"]
        report, code = run(argv)
        assert code == 3 and report == {"error": f"out of memory: {message}"}
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert json.loads(err) == report

    def test_hs_ss_report(self):
        report, code = run(
            ["hs-ss", "--algebra", "catalog:N", "--ideal", "e",
             "--module", "trivial", "--max-degree", "8"]
        )
        assert code == 0
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["convergence"] and checks["page-closed-forms"]
        flags = report["informational"][0]["closed_form_table"]
        assert flags[0]["agree"] is True
        assert flags[1]["agree"] is False  # degree one disagrees with the table

    def test_hs_ss_closed_form_flags_need_the_catalog_entry(self, tmp_path):
        # a file that names its algebra N is not the catalog's N: an abelian
        # table gets no flags against N's closed-form table
        f = tmp_path / "n.alg"
        f.write_text("algebra N\ndim 2\nbasis e f\n")
        args = ["hs-ss", "--ideal", "10", "--module", "trivial", "--max-degree", "8"]
        report, code = run([*args, "--algebra", str(f)])
        assert code == 0 and report["payload"]["algebra"] == "N"
        assert not any("closed_form_table" in item for item in report["informational"])
        report, code = run([*args, "--algebra", "catalog:N"])
        assert any("closed_form_table" in item for item in report["informational"])

    def test_compare_report(self):
        report, code = run(
            ["compare", "--algebra", "catalog:a", "--module", "trivial",
             "--max-degree", "5"]
        )
        assert code == 0
        comps = report["payload"]["comparisons"]
        assert comps["lie-leibniz"]["product_ok"]
        assert comps["comm-leibniz"]["product_ok"]
        assert not comps["lie-comm"]["product_ok"]  # informational mismatch

    def test_les_csv(self, capsys):
        assert main(["les", "--algebra", "catalog:abelian1", "--max-degree", "3",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "comparison,node,ok"
        assert "False" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["cohomology", "--algebra", "catalog:a", "--max-degree", "-1"],
            ["hs-ss", "--algebra", "catalog:a", "--ideal", "e", "--max-degree", "-1"],
            ["compare", "--algebra", "catalog:a", "--max-degree", "-1"],
            ["les", "--algebra", "catalog:a", "--max-degree", "-1"],
            ["survey", "--dim", "4"],
            ["survey", "--dim", "-1"],
            ["survey", "--dim", "0", "--up-to-iso"],
            ["survey", "--dim", "1", "--up-to-iso", "--betti-degree", "-1"],
            ["cohomology", "--algebra", "catalog:a", "--flavor", "sym,sym"],
        ],
    )
    def test_out_of_range_argument_is_input_error(self, argv, capsys):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert "must be" in err and "internal" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cohomology", "--algebra", "catalog:a", "--max-degree", "x"],
            ["check", "--algebra", "catalog:a", "--no-such-option"],
            ["compare", "--max-degree", "3"],
            ["survey", "--dim", "2", "--format", "xml"],
            ["no-such-command"],
            [],
            ["cohomology", "--algebra", "catalog:a", "--jobs", "2"],
            ["hs-ss", "--algebra", "catalog:a", "--ideal", "e", "--subalgebra", "h"],
            ["hs-ss", "--algebra", "catalog:a"],
        ],
    )
    def test_usage_error_is_input_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: commcoh") and "error:" in err

    def test_input_digest_covers_exactly_the_payload_arguments(self):
        def digest(*argv):
            report, code = run(list(argv))
            assert code == 0
            return report["input_digest"], report["payload"]

        d2, p2 = digest("survey", "--dim", "2", "--up-to-iso", "--betti-degree", "2")
        d3, p3 = digest("survey", "--dim", "2", "--up-to-iso", "--betti-degree", "3")
        assert p2 != p3 and d2 != d3
        plain = digest("survey", "--dim", "2", "--betti-degree", "2")
        assert plain == digest("survey", "--dim", "2", "--betti-degree", "3")
        survey = ["survey", "--dim", "2", "--up-to-iso", "--betti-degree", "2"]
        assert (d2, p2) == digest(*survey, "--jobs", "2", "--format", "csv")
        check = ["check", "--algebra", "catalog:N"]
        assert digest(*check)[0] != digest("check", "--algebra", "catalog:a")[0]
        coh = ["cohomology", "--algebra", "catalog:a", "--max-degree", "3"]
        assert digest(*coh)[0] != digest(*coh, "--flavor", "tensor")[0]

    def test_input_digest_covers_file_modules_and_subspaces(self, tmp_path):
        # one path, two contents: the table and the arguments are equal
        path = tmp_path / "alg.txt"

        def digest(text, *argv):
            path.write_text(text)
            report, code = run([argv[0], "--algebra", str(path), *argv[1:]])
            assert code == 0
            return report["input_digest"], report["payload"]

        base = "dim 2\nbasis e f\nbracket f f = e\n"
        for argv in (
            ("cohomology", "--module", "m", "--max-degree", "3"),
            ("check",),
        ):
            d2, p2 = digest(base + "module m dim 2\n", *argv)
            d1, p1 = digest(base + "module m dim 1\n", *argv)
            assert p2 != p1 and d2 != d1, argv
        hs = ("hs-ss", "--ideal", "h", "--max-degree", "3")
        d_e, p_e = digest("dim 2\nbasis e f\nsubspace h = 10\n", *hs)
        d_f, p_f = digest("dim 2\nbasis e f\nsubspace h = 01\n", *hs)
        assert p_e != p_f and d_e != d_f
        assert (d_e, p_e) == digest("dim 2\nbasis e f\nsubspace h = 10\n", *hs)

    FILE_ARGVS = [
        ("check",),
        ("cohomology", "--module", "m", "--max-degree", "3"),
        ("hs-ss", "--module", "m", "--ideal", "h", "--max-degree", "3"),
    ]
    DEMO = ("algebra demo\ndim 2\nbasis e f\nbracket f f = e\nmodule m dim 2\n"
            "action m f = 01 00\nsubspace h = 10\n")

    @staticmethod
    def _file_digest(path, text, argv):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        report, code = run([argv[0], "--algebra", str(path), *argv[1:]])
        assert code == 0
        return report["input_digest"], report["payload"]

    @pytest.mark.parametrize("argv", FILE_ARGVS, ids=lambda argv: argv[0])
    def test_input_digest_is_one_for_a_file_at_two_paths(self, tmp_path, argv):
        one = self._file_digest(tmp_path / "one" / "alg.txt", self.DEMO, argv)
        assert one == self._file_digest(tmp_path / "two" / "copy.txt", self.DEMO, argv)

    @pytest.mark.parametrize("argv", FILE_ARGVS, ids=lambda argv: argv[0])
    def test_input_digest_covers_a_file_algebra_name(self, tmp_path, argv):
        # one path, two files that differ only in their algebra line
        demo = self._file_digest(tmp_path / "alg.txt", self.DEMO, argv)
        other = self._file_digest(tmp_path / "alg.txt", self.DEMO.replace("demo", "other"), argv)
        assert demo[1] != other[1] and demo[0] != other[0]

    @pytest.mark.parametrize("algebra, module, digest, tables", [
        ("catalog:N", "adjoint", "a1ac0deaeaaf53b1", {"sym": [1, 1, 0, 0]}),
        ("alg.txt", "m", "49404cfa5e9672f4", {"sym": [1, 1, 0, 0]}),
    ])
    def test_input_digest_is_pinned(self, tmp_path, monkeypatch, algebra, module, digest, tables):
        # values from when a module carried separate left and right
        # actions; a file module's rho now fills both of their slots.  A
        # file enters by its algebra name (here the default, anon), not its path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alg.txt").write_text(
            "dim 2\nbasis e f\nbracket f f = e\nmodule m dim 2\naction m f = 01 00\n"
        )
        report, code = run(["cohomology", "--algebra", algebra, "--module", module,
                            "--max-degree", "3"])
        assert code == 0 and report["payload"]["tables"] == tables
        assert report["input_digest"] == digest

    @pytest.mark.parametrize("argv, digest", [
        ("check --algebra catalog:N", "ccd98b1c9a093faa"),
        ("check --algebra alg.txt", "598240bd834fcef7"),
        ("cohomology --algebra catalog:a --max-degree 3", "1a5710463196c785"),
        ("hs-ss --algebra catalog:a --ideal e --max-degree 3", "a6754dcf6932967f"),
        # load_catalog drops parentheses and colons, so these name the same entry
        ("hs-ss --algebra catalog:(a) --ideal e --max-degree 3", "a6754dcf6932967f"),
        ("hs-ss --algebra catalog::a --ideal e --max-degree 3", "a6754dcf6932967f"),
        ("hs-ss --algebra alg.txt --module m --ideal h --max-degree 3", "ab924090d8ac8a5c"),
        ("compare --algebra catalog:a --max-degree 3", "28a0b24f6a74ed12"),
        ("compare --algebra alg.txt --module m --max-degree 3", "71386f73fe904213"),
        ("les --algebra catalog:N --max-degree 3", "35ef8af3ce2045df"),
        ("les --algebra alg.txt --module m --max-degree 3", "0b20b923d03cf791"),
        ("survey --dim 2", "e5e8683bc98fa2a6"),
        ("survey --dim 2 --up-to-iso --betti-degree 2", "69228c61f7748401"),
    ])
    def test_every_command_digest_is_pinned(self, tmp_path, monkeypatch, argv, digest):
        # values printed by hashlib's sha256, before the digest took CPython's
        # own module: the two must agree byte for byte (test_input_digest_is_pinned
        # holds the file case of cohomology)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alg.txt").write_text(
            "dim 2\nbasis e f\nbracket f f = e\nmodule m dim 2\naction m f = 01 00\n"
            "subspace h = 10\n"
        )
        report, code = run(argv.split())
        assert code == 0 and report["input_digest"] == digest
        if argv.startswith("hs-ss --algebra catalog:"):  # a's closed forms, however it is spelled
            assert [list(x) for x in report["informational"]] == [["closed_form_table"]]

    def test_survey_cli(self):
        report, code = run(["survey", "--dim", "2", "--up-to-iso"])
        assert code == 0
        assert report["payload"]["candidates"] == 64
        assert report["payload"]["orbits"] == report["payload"]["orbits"]
        assert len(report["payload"]["orbit_summaries"]) == report["payload"]["orbits"]

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        assert main(["check", "--algebra", "catalog:a", "--output", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["payload"]["algebra"] == "a"

    def test_unwritable_output_is_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_run", lambda args: pytest.fail("the command ran"))
        target = tmp_path / "missing" / "out.json"
        argv = ["cohomology", "--algebra", "catalog:N", "--output", str(target)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"].startswith(f"cannot write {target}:")
        assert not target.parent.exists()

    def test_refused_command_keeps_existing_output(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("kept\n")
        argv = ["check", "--algebra", "catalog:nope", "--output", str(target)]
        assert main(argv) == 1
        assert target.read_text() == "kept\n"

    def test_refused_command_leaves_no_new_output(self, tmp_path, capsys):
        target = tmp_path / "new.json"
        argv = ["les", "--algebra", "catalog:N", "--max-degree", "-1", "--output", str(target)]
        assert main(argv) == 1
        assert not target.exists()
        assert json.loads(capsys.readouterr().err) == {"error": "--max-degree must be at least 0"}

    def test_out_of_memory_leaves_no_new_output(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(cohomology_module, "betti_table", exhausted)
        target = tmp_path / "new.json"
        argv = ["cohomology", "--algebra", "catalog:N", "--output", str(target)]
        assert main(argv) == 3
        assert not target.exists()
        assert json.loads(capsys.readouterr().err) == {"error": "out of memory: Unable to allocate"}

    def test_ext_flavor_skipped_for_non_lie(self):
        report, code = run(
            ["cohomology", "--algebra", "catalog:N", "--flavor", "sym,ext"]
        )
        assert code == 0
        assert "ext" not in report["payload"]["tables"]
        assert any("skipped" in i for i in report["informational"])

    def test_subalgebra_flag(self):
        report, code = run(
            ["hs-ss", "--algebra", "catalog:a", "--subalgebra", "h",
             "--module", "trivial", "--max-degree", "5"]
        )
        assert code == 0
        assert report["payload"]["verdict"] == "subalgebra"
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["convergence"]
        assert "page-closed-forms" not in checks  # ideal-only cross-check

    def test_ideal_flag_rejects_subalgebra(self):
        report, code = run(
            ["hs-ss", "--algebra", "catalog:a", "--ideal", "h", "--max-degree", "4"]
        )
        assert code == 1 and "subalgebra" in report["error"]

    def test_subalgebra_flag_rejects_non_subalgebra(self):
        # [x, y] = z leaves the span of x and y
        report, code = run(
            ["hs-ss", "--algebra", "catalog:heis3", "--subalgebra", "100,010", "--max-degree", "3"]
        )
        assert code == 1
        assert report["error"] == "--subalgebra names a not-subalgebra"

    @pytest.mark.parametrize(
        "spec",
        ["trivial:abc", "trivial:-1", "trivial:", "trivial:1e3", "trivial:2365",
         "trivial:" + "9" * 5000],
        ids=["letters", "negative", "empty", "exponent", "over-bound", "5000-digits"],
    )
    def test_bad_trivial_dimension_is_input_error(self, spec):
        # heis3 has dim 3, and 3 * 2365^2 bytes of actions is over MAX_TABLE_BYTES
        assert 3 * 2364**2 <= catalog_module.MAX_TABLE_BYTES < 3 * 2365**2
        report, code = run(["cohomology", "--algebra", "catalog:heis3", "--module", spec,
                            "--max-degree", "2"])
        assert code == 1
        assert report["error"].startswith(f"module {spec!r}") and "internal" not in report["error"]

    @pytest.mark.parametrize("k, dims", [(0, [0, 0, 0]), (2, [2, 4, 8])])
    def test_trivial_dimension_within_bound(self, k, dims):
        report, code = run(["cohomology", "--algebra", "catalog:heis3", "--module", f"trivial:{k}",
                            "--max-degree", "2"])
        assert code == 0 and report["payload"]["tables"]["sym"] == dims

    def test_hs_ss_accepts_bit_vector_span(self):
        report, code = run(
            ["hs-ss", "--algebra", "catalog:N", "--ideal", "10", "--max-degree", "5"]
        )
        assert code == 0 and report["payload"]["verdict"] == "ideal"

    def test_csv_determinism(self, capsys):
        args = ["cohomology", "--algebra", "catalog:a", "--flavor", "sym",
                "--max-degree", "6", "--format", "csv"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_two_route_check_present(self):
        report, code = run(
            ["cohomology", "--algebra", "catalog:N", "--flavor", "sym",
             "--max-degree", "6"]
        )
        assert code == 0
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["two-route[sym]"]


class TestLazyModules:
    def test_check_reports_bad_module_instead_of_crashing(self, tmp_path):
        f = tmp_path / "badmod.alg"
        f.write_text(
            "dim 2\nbasis e f\nbracket f f = e\n"
            "module bad dim 1\naction bad e = 1\n"
            "module fine dim 1\n"
        )
        report, code = run(["check", "--algebra", str(f)])
        assert code == 2  # a failed check, not a crash
        mods = report["payload"]["modules"]
        assert mods["bad"]["axioms_ok"] is False
        assert mods["fine"]["axioms_ok"] is True

    def test_good_module_usable_despite_bad_sibling(self, tmp_path):
        f = tmp_path / "mixed.alg"
        f.write_text(
            "dim 2\nbasis e f\nbracket f f = e\n"
            "module bad dim 1\naction bad e = 1\n"
            "module fine dim 2\n"
        )
        report, code = run(
            ["cohomology", "--algebra", str(f), "--module", "fine", "--max-degree", "4"]
        )
        assert code == 0
        assert report["payload"]["tables"]["sym"][0] == 2
