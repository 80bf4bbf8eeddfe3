"""Fuzz of the command-line front end: whatever the flags, `kwise` exits
with 0, 1 or 2 within 20 s and never lets an exception escape as a
traceback."""
import contextlib
import io
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kwise.cli import run

# each domain mixes valid values with invalid ones: negative and zero sizes,
# malformed orders, an unknown construction, precision 0
small_int = st.integers(-2, 12).map(str)
order = st.one_of(
    st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=4).map(str),
    st.sampled_from(["0", "1/0", "x", "", "1e3"]),
)
weights = st.lists(
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3).map(str),
    min_size=1,
    max_size=9,
).map(",".join)
constructions = st.sampled_from(["partition", "xor", "independent", "uniform"])
kinds = st.sampled_from(["partition", "xor", "independent"])


def flag(name, values):
    return values.map(lambda v: [name, v])


def opt(name, values):
    """Either nothing or the flag with one drawn value."""
    return st.one_of(st.just([]), flag(name, values))


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


fmt = opt("--format", st.sampled_from(["json", "csv", "table"]))
# only moment, bound, constant and table take --precision-bits; the others
# would reject it as a usage error before reaching their success paths
bits = opt("--precision-bits", st.sampled_from(["1", "2", "16", "128", "0"]))

argvs = st.one_of(
    command("construct", flag("--construct", constructions), flag("--n", small_int), fmt),
    command("verify", flag("--construct", constructions), flag("--n", small_int),
            flag("--k", small_int), fmt),
    command("moment", flag("--construct", constructions), flag("--n", small_int),
            flag("--p", order), opt("--a", weights), fmt, bits),
    command("bound", flag("--kind", st.sampled_from(["haagerup", "interpolation", "sharp"])),
            opt("--n", small_int), opt("--p", order), opt("--k", small_int), fmt, bits),
    # the unreduced program is kept to n <= 8: its work bound admits cells
    # up to n = 12, but already at n = 9 a cell takes about 5 s
    command("constant", flag("--n", small_int), flag("--p", order), flag("--k", small_int),
            st.sampled_from([[], ["--full"]]),
            opt("--a", weights), fmt, bits).filter(
                lambda a: "--full" not in a or int(a[a.index("--n") + 1]) <= 8),
    command("sample", flag("--kind", kinds), flag("--n", small_int),
            opt("--seed", st.integers(-3, 2**64).map(str)),
            opt("--samples", st.integers(-1, 500).map(str)), fmt),
    command("estimate", flag("--kind", kinds), flag("--n", small_int), flag("--p", order),
            opt("--a", weights), opt("--seed", st.integers(-3, 2**64).map(str)),
            opt("--samples", st.integers(-1, 500).map(str)), fmt),
    command("table", opt("--n", st.lists(small_int, min_size=1, max_size=3).map(",".join)),
            opt("--p", st.lists(order, min_size=1, max_size=2).map(",".join)),
            opt("--k", st.lists(small_int, min_size=1, max_size=3).map(",".join)), fmt, bits),
)


@settings(max_examples=50, deadline=None)
@given(argvs)
def test_any_flags_exit_cleanly(argv):
    # the heaviest inputs the strategies admit take about 2 s on a 2-core host
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < 20, argv
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
