"""Drawn flag values never escape the CLI's exit-code contract.

``cli.main`` runs in-process on the bundled CSV; whatever the flags, it must
return (or, for argparse's own errors, exit with) one of the documented codes,
and no exception may escape.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from shaplab import cli
from shaplab.scenarios import SCENARIO_NAMES

INDEPENDENT = Path(__file__).resolve().parent.parent / "data" / "independent.csv"
EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def flags(name, values):
    """Flag arguments for each drawn value; None leaves the flag out."""
    return values.map(lambda v: [] if v is None else [f"--{name}={v}"])


# per dimension: (valid, hostile) argument lists
DIMENSIONS = {
    "model": (
        flags("model", st.sampled_from(["multiplicative", "linear:0.5,2,-1,0.5"])),
        flags("model", st.sampled_from([None, "recourse", "linear:0,1e307,1e307,0", "linear:1,2", "spline"])),
    ),
    "instance": (
        flags("instance", st.sampled_from(["0", "3", "7", "1,3,-2"])),
        flags("instance", st.sampled_from([None, "5,5,5", "8", "-1", "1,nan,0", "1,2", "row"])),
    ),
    "value_fn": (
        flags("value-fn", st.sampled_from([
            None, "conditional", "marginal-joint", "product-of-marginals", "single-reference:0",
            "single-reference:1,0,-1",
        ])),
        flags("value-fn", st.sampled_from([
            "single-reference:9", "single-reference:1,2,3", "single-reference:1,inf,0", "single-reference",
            "marginal-joint:0", "causal",
        ])),
    ),
    "solver": (
        st.one_of(
            st.sampled_from([[], ["--solver=exact"], ["--solver=sampled"], ["--solver=equal-split"]]),
            flags("edges", st.sampled_from(["x1->x2", "x1->x3,x2->x3", "0->2"])).map(
                lambda edges: ["--solver=asymmetric", *edges]),
        ),
        st.one_of(
            st.just(["--solver=greedy"]),
            st.just(["--solver=exact", "--edges=x1->x2"]),
            flags("edges", st.sampled_from([None, "x1->x2,x2->x1", "x3->x3", "x1->x9", "x1", ""])).map(
                lambda edges: ["--solver=asymmetric", *edges]),
        ),
    ),
    "tolerance": (
        flags("tolerance", st.one_of(st.none(), st.floats(0, 1e3), st.sampled_from([0.0, 1e-9, 0.5]))),
        flags("tolerance", st.one_of(
            st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(["-1", "nan", "-inf", "tight"]))),
    ),
    "n_samples": (
        flags("n-samples", st.one_of(st.none(), st.integers(1, 40))),
        flags("n-samples", st.one_of(st.integers(-3, 0), st.just("many"))),
    ),
    "seed": (
        flags("seed", st.integers(0, 2**40)),
        flags("seed", st.one_of(st.none(), st.integers(-5, -1), st.just("x"))),
    ),
}


@st.composite
def explain_audit_argv(draw):
    """A valid run with at most one dimension spoiled, so that no fault hides
    behind another one checked earlier."""
    spoiled = draw(st.sampled_from([None, *DIMENSIONS]))
    argv = [draw(st.sampled_from(["explain", "audit"])), "--dataset", str(INDEPENDENT)]
    for name, (valid, hostile) in DIMENSIONS.items():
        argv += draw(hostile if name == spoiled else valid)
    return argv


def run_main(argv) -> int:
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main([*argv, "--out", out])
        except SystemExit as exc:  # argparse rejects malformed flag values itself
            return exc.code


@FUZZ
@given(explain_audit_argv())
def test_explain_and_audit_exit_codes(argv):
    assert run_main(argv) in EXIT_CODES


@FUZZ
@given(
    name=st.sampled_from([*SCENARIO_NAMES, "all", "nosuch"]),
    n=flags("n-samples", st.one_of(st.none(), st.integers(-2, 40))),
    seed=flags("seed", st.one_of(st.none(), st.integers(-1, 2**40))),
)
def test_scenario_exit_codes(name, n, seed):
    assert run_main(["scenario", name, *n, *seed]) in EXIT_CODES
