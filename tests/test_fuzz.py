"""Hypothesis fuzzing of the algebra-file parser and the command line.

Texts are drawn from a grammar of the file format mixed with stray
tokens, so most are near misses of valid files.  Numbers stay small:
the parser allocates dim^3 table entries and dim * M^2 action entries,
and a size budget is not part of what is fuzzed here.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from commcoh import cli
from commcoh.catalog import AlgebraFileError, parse_algebra_file, serialize_algebra_file

LABELS = ["x", "y", "z", "e", "0", "a+b", "="]
NAMES = st.sampled_from(["m", "h", "reg"])
SMALL = st.sampled_from(["0", "1", "2", "3", "-1", "x", "1.5", "03"])
STRAY = st.sampled_from(["=", "+", "dim", "#", "bracket", "0", "11", "", "\t", "é"])


@st.composite
def file_texts(draw):
    """Files of one dimension whose lines mostly fit it, some not."""
    d = draw(st.integers(0, 3))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=d, max_size=d))
    label = st.sampled_from(labels + ["w"]) if labels else st.just("w")
    bits = st.text(alphabet="01", min_size=d, max_size=d) | st.text(alphabet="01", max_size=4)
    rhs = st.lists(label, min_size=1, max_size=3).map("+".join) | st.just("0")
    mdim = st.integers(0, 2)
    lines = st.one_of(
        st.tuples(st.just("algebra"), NAMES),
        st.tuples(st.just("dim"), SMALL),
        st.tuples(st.just("bracket"), label, label, st.just("="), rhs),
        st.tuples(st.just("module"), NAMES, st.just("dim"), mdim.map(str)),
        mdim.flatmap(
            lambda m: st.tuples(
                st.just("action"), NAMES, label, st.just("="),
                st.lists(st.text(alphabet="01", min_size=m, max_size=m), min_size=m, max_size=m).map(" ".join),
            )
        ),
        st.tuples(st.just("subspace"), NAMES, st.just("="), st.lists(bits, min_size=1, max_size=3).map(" ".join)),
        st.lists(STRAY, max_size=4).map(tuple),
        st.just(("# a comment",)),
    ).map(" ".join)
    head = [f"dim {d}", "basis " + " ".join(labels)] if draw(st.booleans()) else []
    return "\n".join(head + draw(st.lists(lines, max_size=10)))


TEXTS = file_texts() | st.text(max_size=60)


@settings(max_examples=400, deadline=None)
@given(TEXTS)
def test_parse_refuses_or_round_trips(text):
    try:
        fa = parse_algebra_file(text)
    except AlgebraFileError:
        return
    assert parse_algebra_file(serialize_algebra_file(fa)) == fa


@st.composite
def argvs(draw, algebra_files):
    command = draw(st.sampled_from(["check", "cohomology", "hs-ss", "compare", "les", "survey", "bogus"]))
    argv = [command]
    if command == "survey":
        argv += ["--dim", draw(st.sampled_from(["0", "1", "2", "4", "x"]))]
        if draw(st.booleans()):
            argv.append("--up-to-iso")
        if draw(st.booleans()):
            argv += ["--betti-degree", draw(SMALL)]
    else:
        algebra = draw(
            st.sampled_from(["catalog:N", "catalog:a", "catalog:heis3", "catalog:abelian2"])
            | st.sampled_from(["catalog:nope", "missing.txt"] + algebra_files)
        )
        # the default --max-degree 6 makes compare on heis3 take seconds
        argv += ["--algebra", algebra, "--max-degree", draw(st.sampled_from("0123") | SMALL)]
        options = {
            "--module": st.sampled_from(["trivial", "adjoint", "coadjoint", "flambda", "m", "reg",
                                         "trivial:2", "flambda:01", "flambda:1", "nope"]),
            "--format": st.sampled_from(["json", "csv", "xml"]),
        }
        if command == "cohomology":
            options["--flavor"] = st.sampled_from(["sym", "ext", "tensor", "sym,ext,tensor", "bad"])
        if command == "hs-ss":
            options["--ideal"] = st.sampled_from(["e", "z", "h", "f", "x", "001", "10", "1,0"])
            options["--subalgebra"] = st.sampled_from(["e", "z", "h", "x", "010", "11"])
        if command == "compare":
            options["--comparison"] = st.sampled_from(
                ["all", "ext-in-tensor", "ext-in-sym", "sym-in-tensor", "bad"]
            )
        for name in draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True)):
            argv += [name, draw(options[name])]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(["--jobs", "--unknown", "-x", "extra"])))
    return argv


@pytest.fixture(scope="module")
def algebra_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "demo.txt": "algebra demo\ndim 2\nbasis e f\nbracket f f = e\nsubspace h = 10\n",
        "bad_module.txt": "dim 2\nbasis e f\nbracket f f = e\nmodule m dim 1\naction m f = 1\n",
        "not_lie.txt": "dim 1\nbasis x\nbracket x x = x\nsubspace h = 1\n",
        "broken.txt": "dim 2\nbracket e f = g\n",
        "empty.txt": "",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    return [str(root / name) for name in texts]


def test_cli_exits_cleanly(algebra_files):
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(algebra_files))
    def check(argv):
        try:
            report, code = cli.run(argv)
        except SystemExit as exc:  # argparse: usage errors exit 1
            code = exc.code
        else:
            assert isinstance(report, dict)
        assert code in (0, 1, 2), argv

    check()
