"""The benchmark's workloads: inputs made from the seed, the timed call
script in its fixed order, and the independent check of every output.

A workload's `build(seed)` imports kwise and returns two lists of
operations: the timed ones, run in order, and untimed check operations run
after the timed section.  Each operation's `check` returns the problems it
found in that operation's output; an empty list means it passed.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from random import Random
from typing import Callable, Optional

import checks


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    span: Optional[str] = None  # bench-side span in traced rounds


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], tuple[list[Op], list[Op]]]
    block_scipy: bool = False
    probe: Optional[Callable[[int], dict[str, float]]] = None


# -- full_lp and full_lp_noscipy ------------------------------------------

# non-uniform rational weights; a weighted cell of dimension n uses the first
# n entries times a seeded power of two (see README: why only that scale)
BASE_WEIGHTS = tuple(Fraction(s) for s in ("1", "2", "3", "1/2", "3/2", "1", "2/3", "5/4"))
WEIGHTED_CELLS = ((5, 1, 3), (6, 2, 2), (6, 2, 4), (6, 4, 4), (6, 2, Fraction(5, 2)),
                  (7, 2, 3), (7, 3, 5), (7, 4, 5), (8, 2, 4))
FRACTIONAL_CELLS = ((6, 2, Fraction(5, 2)), (7, 3, Fraction(7, 2)), (8, 2, Fraction(9, 2)))
HEAVY_CELLS = ((8, 4, 4), (8, 4, 5))


def full_cells(seed: int, heavy: bool) -> list[tuple]:
    """(n, k, p, weights or None for all-ones) in call order: grouped by
    (n, k), so each cached solver sees its objectives back to back."""
    rng = Random(seed)
    cells = []
    for n in range(2, 8):
        for k in range(1, min(4, n) + 1):
            cells += [(n, k, Fraction(p), None) for p in range(2, 7)]
    cells += [(8, 2, Fraction(p), None) for p in range(2, 7)]
    if heavy:
        cells += [(n, k, Fraction(p), None) for n, k, p in HEAVY_CELLS]
    cells += [(n, k, p, None) for n, k, p in FRACTIONAL_CELLS]
    for n, k, p in WEIGHTED_CELLS:
        scale = Fraction(2) ** rng.randint(-3, 3)
        cells.append((n, k, Fraction(p), tuple(scale * w for w in BASE_WEIGHTS[:n])))
    cells.sort(key=lambda c: (c[0], c[1]))
    return cells


def _check_labels(n, k, labels) -> list[str]:
    if [tuple(t) for t in labels] != checks.parity_labels(n, k):
        return [f"row labels for n={n}, k={k} are not size-then-lex subsets"]
    return []


def _check_full(n, k, p, a, sol) -> list[str]:
    all_ones = a is None
    weights = (Fraction(1),) * n if all_ones else a
    problems = [] if sol.certificate_ok is True else ["certificate_ok is not True"]
    return problems + checks.check_full_solution(
        n, k, p, weights, all_ones, sol.optimal_value, sol.optimizer.masses, sol.dual)


def _build_full(seed: int, heavy: bool):
    from kwise import extremal
    from kwise.moments import Weights

    # calls look kwise's functions up when they run, so that traced rounds
    # go through the wrappers installed after the inputs are built
    ops = []
    seen = set()
    for n, k, p, a in full_cells(seed, heavy):
        if (n, k) not in seen:
            seen.add((n, k))
            ops.append(Op(f"full_constraint_labels({n}, {k})",
                          partial(lambda n, k: extremal.full_constraint_labels(n, k), n, k),
                          partial(_check_labels, n, k)))
        w = None if a is None else Weights(a)
        ops.append(Op(f"solve_full(n={n}, p={p}, k={k}, {'ones' if a is None else 'weighted'})",
                      partial(lambda n, p, k, w: extremal.solve_full(n, p, k, a=w), n, p, k, w),
                      partial(_check_full, n, k, p, a)))
    return ops, []


# -- cli_session -------------------------------------------------------------


def _bits(signs: str) -> int:
    return sum(1 << i for i, ch in enumerate(signs) if ch == "+")


def _atoms(data) -> dict[int, Fraction]:
    return {_bits(at["signs"]): Fraction(at["prob"]) for at in data["atoms"]}


def _law(construct: str, n: int) -> dict[int, Fraction]:
    return {"partition": checks.partition_law, "xor": checks.xor_law,
            "independent": checks.uniform_law}[construct](n)


def _dim(kind: str, n: int) -> int:
    return 1 << n if kind == "xor" else n


def _weights_text(rng: Random, n: int) -> str:
    return ",".join(str(Fraction(rng.randint(1, 9), rng.randint(1, 4))) for _ in range(n))


def _parse_weights(text: Optional[str], n: int) -> tuple[Fraction, ...]:
    if text is None:
        return (Fraction(1),) * n
    return tuple(Fraction(s) for s in text.split(","))


def _encloses(value, ref) -> bool:
    """value is "a/b" (exact) or {"lo", "hi"}; ref an mpmath number."""
    slack = checks.mpmath.mpf(10) ** -60 * max(1, abs(ref))
    if isinstance(value, str):
        return abs(checks.mp(value) - ref) <= slack
    return checks.mp(value["lo"]) - slack <= ref <= checks.mp(value["hi"]) + slack


def _bounds(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, str):
        return Fraction(value), Fraction(value)
    return Fraction(value["lo"]), Fraction(value["hi"])


def _check_construct(construct, n, data):
    if data.get("n") != _dim(construct, n) or _atoms(data) != _law(construct, n):
        return [f"{construct} law of size {n} differs from its definition"]
    return []


def _check_verify(construct, n, k, data):
    law = _law(construct, n)
    level = _dim(construct, n) if construct == "independent" else 3
    if k <= level:
        ok = data == {"k_verified": k, "witness": None}
        return [] if ok else [f"verify {construct} k={k}: expected a pass, got {data}"]
    wit = data.get("witness") or {}
    subset = tuple(wit.get("T", ()))
    avg = sum((q * checks.character(b, subset) for b, q in law.items()), Fraction(0))
    if data.get("k_verified") != level or len(subset) != level + 1 or avg == 0 \
            or Fraction(wit.get("coefficient", "0")) != avg:
        return [f"verify {construct} k={k}: bad witness {data}"]
    return []


def _check_moment(construct, n, p, a_text, data):
    law = _law(construct, n)
    a = _parse_weights(a_text, _dim(construct, n))
    problems = []
    if p.denominator == 1 and Fraction(data["value"]) != checks.moment(a, p.numerator, law):
        problems.append(f"moment {construct} p={p}: value differs from enumeration")
    with checks.mpmath.workprec(checks.MP_PREC):
        ref = checks.moment_mp(a, p, law)
        if not _encloses(data["value"], ref):
            problems.append(f"moment {construct} p={p}: value misses {checks.mpmath.nstr(ref, 30)}")
        l2sq = sum((w * w for w in a), Fraction(0))
        ratio = ref ** (1 / checks.mp(p)) / checks.mpmath.sqrt(checks.mp(l2sq))
        if not _encloses(data["ratio"], ratio):
            problems.append(f"moment {construct} p={p}: ratio misses the reference")
    if construct == "partition" and a_text is None:
        lo, hi = _bounds(data["value"])
        if not checks.rational_root_check(lo, hi, Fraction(n), p.numerator - p.denominator, p.denominator):
            problems.append(f"partition moment excludes n^(p-1) at n={n}, p={p}")
    return problems


def _check_bound(kind, n, p, k, data):
    with checks.mpmath.workprec(checks.MP_PREC):
        if kind == "haagerup":
            ref = checks.haagerup_mp(p)
        elif kind == "interpolation":
            ref = checks.interpolation_mp(n, p, k)
        else:
            ref = checks.mp(n) ** (checks.mpmath.mpf(1) / 2 - 1 / checks.mp(p))
        v = data["value"]
        return (checks.decimal_bound_problems(v["lo"], ref, True, kind)
                + checks.decimal_bound_problems(v["hi"], ref, False, kind))


def _reduced_value_problems(n, p, k, value) -> list[str]:
    lo, hi = _bounds(value)
    u, v = p.numerator, p.denominator
    problems = []
    if k in (2, 3) and n % 2 == 0 and p >= 2:
        if not checks.rational_root_check(lo, hi, Fraction(n), u - v, v):
            problems.append(f"n={n}, p={p}, k={k}: value excludes n^(p-1)")
    if p == 2 and k >= 2 and not lo <= n <= hi:
        problems.append(f"n={n}, p=2, k={k}: value is not n")
    if k == 4 and p >= 4 and lo**v > 3**v * Fraction(n) ** (u - 2 * v):
        problems.append(f"n={n}, p={p}, k=4: value exceeds 3 n^(p-2)")
    return problems


def _check_constant(n, p, k, a_text, data):
    problems = [] if data["certificate_ok"] is True else ["certificate_ok is not True"]
    opt = data["optimizer"]
    if a_text is None:
        q = [Fraction(s) for s in opt["q"]]
        problems += checks.check_profile(n, k, q)
        problems += _reduced_value_problems(n, p, k, data["value"])
        if p.denominator == 1:
            if checks.profile_moment(n, p.numerator, q) != Fraction(data["value"]):
                problems.append(f"constant n={n}: profile moment differs from the value")
            if data["unique"] is None:
                problems.append(f"constant n={n}: uniqueness undecided")
        if p == 4 and k == 2 and n % 2 == 0:
            if data["unique"] is not True or q != checks.partition_profile(n):
                problems.append(f"constant n={n}, p=4, k=2: not the unique partition profile")
    else:
        a = _parse_weights(a_text, n)
        masses = _atoms(opt)
        problems += checks.check_law(n, k, masses)
        value = Fraction(data["value"])
        if checks.moment(a, p.numerator, masses) != value:
            problems.append("full constant: law's moment differs from the value")
        problems += checks.closed_form_problems(n, k, p, a, False, value, value)
    return problems


def _check_sample(kind, n, samples, data):
    dim = _dim(kind, n)
    if [row["draw"] for row in data] != list(range(samples)):
        return [f"sample {kind}: wrong draw numbering"]
    for row in data:
        s = row["signs"]
        if len(s) != dim or set(s) - {"+", "-"}:
            return [f"sample {kind}: malformed draw {s!r}"]
        bits = _bits(s)
        if kind == "partition" and not checks.is_partition_vector(bits, n):
            return [f"sample partition: {s} is outside the support"]
        if kind == "xor" and not checks.is_xor_vector(bits, n):
            return [f"sample xor: {s} is outside the support"]
    return []


def _exact_independent_moment(n: int, p: int) -> Fraction:
    return Fraction(sum(comb(n, m) * abs(2 * m - n) ** p for m in range(n + 1)), 1 << n)


def _exact_stream_moment(kind, n, p, a):
    """Exact (or 320-bit) moment of the stream's law, for the 5-SE test."""
    if kind == "independent" and p.denominator == 1 and all(w == 1 for w in a):
        return _exact_independent_moment(n, p.numerator)
    law = _law(kind, n)
    if p.denominator == 1:
        return checks.moment(a, p.numerator, law)
    with checks.mpmath.workprec(checks.MP_PREC):
        return checks.moment_mp(a, p, law)


def _check_estimate(kind, n, p, a_text, samples, data):
    a = _parse_weights(a_text, _dim(kind, n))
    if data["samples"] != samples:
        return ["estimate: wrong sample count"]
    exact = _exact_stream_moment(kind, n, p, a)
    return checks.within_standard_errors(float(data["mean"]), float(data["std_error"]), exact)


def _table_grid(ns, ps, ks):
    return [(n, p, k) for n in ns for p in ps for k in ks if 1 <= k <= n]


def _check_table(ns, ps, ks, data):
    grid = _table_grid(ns, ps, ks)
    if [(r["n"], Fraction(r["p"]), r["k"]) for r in data] != grid:
        return ["table: rows do not follow the (n, p, k) grid"]
    problems = []
    with checks.mpmath.workprec(checks.MP_PREC):
        haag = {p: checks.haagerup_mp(p) for p in ps}
        for r, (n, p, k) in zip(data, grid):
            problems += _reduced_value_problems(n, p, k, r["value"])
            if Fraction(r["ratio_lo"]) > Fraction(r["ratio_hi"]):
                problems.append(f"table n={n}, p={p}, k={k}: ratio interval reversed")
            problems += checks.decimal_bound_problems(r["haagerup"], haag[p], True, "haagerup")
            if k % 2 == 0 and p >= k:
                ref = checks.interpolation_mp(n, p, k)
                problems += checks.decimal_bound_problems(r["interpolation"], ref, False, "interpolation")
            elif r["interpolation"] is not None:
                problems.append(f"table n={n}, p={p}, k={k}: unexpected interpolation column")
            if n % 2 == 0 and k in (2, 3) and p >= 2:
                ref = checks.mp(n) ** (checks.mpmath.mpf(1) / 2 - 1 / checks.mp(p))
                problems += checks.decimal_bound_problems(r["sharp"], ref, False, "sharp")
            elif r["sharp"] is not None:
                problems.append(f"table n={n}, p={p}, k={k}: unexpected sharp column")
    return problems


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_cli(argv, check, result):
    code, out, err = result
    if code != 0:
        return [f"kwise {' '.join(argv)} exited {code}: {err.strip()}"]
    try:
        data = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"kwise {' '.join(argv)} printed invalid JSON: {exc}"]
    return [f"kwise {argv[0]}: {p}" for p in check(data)]


def cli_script(seed: int) -> list[tuple[list[str], Callable]]:
    """(argv, check of the parsed output) in call order."""
    rng = Random(seed)
    s = str(rng.randrange(1 << 32))
    F = Fraction
    w_xor8 = _weights_text(rng, 8)
    w_ind8 = _weights_text(rng, 8)
    w_full5 = _weights_text(rng, 5)
    w_est8 = _weights_text(rng, 8)
    script = [
        (["construct", "--construct", "partition", "--n", "10"],
         partial(_check_construct, "partition", 10)),
        (["construct", "--construct", "xor", "--n", "4"], partial(_check_construct, "xor", 4)),
        (["construct", "--construct", "independent", "--n", "8"],
         partial(_check_construct, "independent", 8)),
    ]
    for construct, n, k in (("partition", 10, 3), ("partition", 10, 4), ("xor", 4, 3), ("xor", 4, 4)):
        script.append((["verify", "--construct", construct, "--n", str(n), "--k", str(k)],
                       partial(_check_verify, construct, n, k)))
    for construct, n, p, a in (("partition", 10, F(4), None), ("partition", 10, F(7, 2), None),
                               ("xor", 3, F(3), w_xor8), ("independent", 8, F(5, 2), w_ind8)):
        argv = ["moment", "--construct", construct, "--n", str(n), "--p", str(p)]
        script.append((argv + (["--a", a] if a else []), partial(_check_moment, construct, n, p, a)))
    for kind, n, p, k in (("haagerup", None, F(3), None), ("haagerup", None, F(7, 2), None),
                          ("haagerup", None, F(6), None), ("sharp", 16, F(5, 2), None),
                          ("interpolation", 12, F(6), 4)):
        argv = ["bound", "--kind", kind, "--p", str(p)]
        argv += ["--n", str(n)] if n else []
        argv += ["--k", str(k)] if k else []
        script.append((argv, partial(_check_bound, kind, n, p, k)))
    for n, p, k in ((8, F(4), 2), (10, F(4), 2), (200, F(4), 2), (1000, F(4), 2), (2000, F(4), 2),
                    (300, F(5), 3), (400, F(6), 4), (64, F(7, 2), 2)):
        script.append((["constant", "--n", str(n), "--p", str(p), "--k", str(k)],
                       partial(_check_constant, n, p, k, None)))
    script.append((["constant", "--n", "5", "--p", "3", "--k", "2", "--full", "--a", w_full5],
                   partial(_check_constant, 5, F(3), 2, w_full5)))
    for kind, n, count in (("partition", 10, 200), ("xor", 4, 100), ("independent", 20, 100)):
        script.append((["sample", "--kind", kind, "--n", str(n), "--samples", str(count), "--seed", s],
                       partial(_check_sample, kind, n, count)))
    for kind, n, p, a, count in (("partition", 8, F(4), None, 20000), ("xor", 3, F(5, 2), w_est8, 5000),
                                 ("independent", 30, F(3), None, 20000)):
        argv = ["estimate", "--kind", kind, "--n", str(n), "--p", str(p), "--samples", str(count),
                "--seed", s] + (["--a", a] if a else [])
        script.append((argv, partial(_check_estimate, kind, n, p, a, count)))
    for ns, ps, ks in (((4, 6, 8, 10, 12), (F(2), F(3), F(4), F(5, 2), F(6)), (2, 3, 4)),
                       ((16, 64), (F(7, 2), F(9, 2), F(11, 3)), (2, 3, 4))):
        argv = ["table", "--n", ",".join(map(str, ns)), "--p", ",".join(map(str, ps)),
                "--k", ",".join(map(str, ks))]
        script.append((argv, partial(_check_table, ns, ps, ks)))
    return script


def _build_cli(seed: int):
    import kwise.cli as cli

    ops = [Op(" ".join(argv), partial(_run_cli, cli, argv), partial(_check_cli, argv, check),
              span=f"cli.{argv[0]}")
           for argv, check in cli_script(seed)]
    return ops, []


# -- monte_carlo -------------------------------------------------------------

MC_SPECS = (  # kind, n, p, weighted, samples
    ("partition", 8, Fraction(4), False, 200_000),
    ("xor", 4, Fraction(5, 2), True, 60_000),
    ("independent", 62, Fraction(3), False, 500_000),
)


def mc_inputs(seed: int):
    rng = Random(seed)
    out = []
    for kind, n, p, weighted, samples in MC_SPECS:
        dim = _dim(kind, n)
        a = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(dim)) \
            if weighted else None
        out.append((kind, n, rng.randrange(1 << 64), p, a, samples))
    return out


def _check_mc(kind, n, p, a, samples, est):
    if est.samples != samples:
        return ["wrong sample count"]
    exact = _exact_stream_moment(kind, n, p, a if a is not None else (Fraction(1),) * _dim(kind, n))
    return checks.within_standard_errors(est.mean, est.std_error, exact)


def _check_words(seed, words):
    if words != checks.splitmix64_words(seed, len(words)):
        return [f"SplitMix64 words for seed {seed} differ from the published generator"]
    return []


def _repeat_estimate(sampler, spec, w, p):
    return (sampler.estimate_moment(spec, w, p, 2000), sampler.estimate_moment(spec, w, p, 2000))


def _check_repeat(pair):
    return [] if pair[0] == pair[1] else [f"repeated estimate differs: {pair}"]


def _build_mc(seed: int):
    from kwise import sampler
    from kwise.moments import Weights

    ops, after = [], []
    for kind, n, stream_seed, p, a, samples in mc_inputs(seed):
        spec = sampler.StreamSpec(kind, n, stream_seed)
        w = None if a is None else Weights(a)
        ops.append(Op(f"estimate_moment({kind}, n={n}, p={p}, {samples})",
                      partial(lambda spec, w, p, s: sampler.estimate_moment(spec, w, p, s),
                              spec, w, p, samples),
                      partial(_check_mc, kind, n, p, a, samples),
                      span=f"sampler.estimate_{kind}"))
        after.append(Op(f"repeat estimate_moment({kind})", partial(_repeat_estimate, sampler, spec, w, p),
                        _check_repeat))
    for word_seed in (seed, 0, (1 << 64) - 1):
        after.append(Op(f"SplitMix64({word_seed})",
                        partial(lambda s: [g.next_u64() for g in [sampler.SplitMix64(s)] for _ in range(256)],
                                word_seed),
                        partial(_check_words, word_seed)))
    return ops, after


DRAWS = {"partition": 50_000, "xor": 10_000, "independent": 200_000}


def _probe_draws(seed: int) -> dict[str, float]:
    """Microseconds per `Stream.draw_bits` for each kind, timed alone."""
    from time import perf_counter

    from kwise import sampler

    out = {}
    for kind, n, stream_seed, _p, _a, _s in mc_inputs(seed):
        draw = sampler.Stream(sampler.StreamSpec(kind, n, stream_seed)).draw_bits
        count = DRAWS[kind]
        start = perf_counter()
        for _ in range(count):
            draw()
        out[kind] = (perf_counter() - start) / count * 1e6
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("full_lp", partial(_build_full, heavy=True)),
        Workload("full_lp_noscipy", partial(_build_full, heavy=False), block_scipy=True),
        Workload("cli_session", _build_cli),
        Workload("monte_carlo", _build_mc, probe=_probe_draws),
    )
}
