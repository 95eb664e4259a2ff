"""Command-line front end: verifications and CSV tables.

Subcommands
-----------
``lemma2``        sign-change-set verification (exhaustive scan or closed form)
``measure-en``    exact |E_n| table against the exponential bound
``build-fn``      construction summary, optional coefficient dump
``lemma1``        partial-sum verification at a point or all base cells
``partial-sums``  S_l table over a cut range at a point
``strong-mean``   strong means table over N for a list of growth functions
``chain-check``   scalar inequality chains at (n, k, Φ)

Conventions: parameters come from flags only.  One table, ``_SUBCOMMANDS``,
holds each subcommand's options with their converters and defaults; the
parser walks ``argv`` against it and help is printed from it.  A flag is
spelled out in full (no abbreviations) and takes its value as
``--flag value`` or ``--flag=value``; the token after a flag is its value
even when it starts with ``-``, so ``--center -1/2`` works.  Every output
starts with ``#`` comment lines echoing the subcommand and effective
parameters; identical invocations produce byte-identical output.  With
``--out`` the file is written before anything is printed, so a path that
cannot be written leaves stdout empty.  The exit status is 0 exactly when no
asserted row failed, 1 when one did, and 2 when the parameters are rejected
or a file cannot be read or written (one ``walshdiv: error:`` line on
stderr, nothing on stdout).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np

from ._kernels import decimal_rows
from .bounds import scaled_le
from .counterexample import (
    EXHAUSTIVE_CAP,
    GRID_CAP,
    MEASURE_BOUND_BITS,
    ConstructionParams,
    LemmaReport,
    WindowSums,
    _dyadic,
    _frac,
    chain_check,
    measure_bound,
    measure_En_range,
    partial_sum_series,
    readable,
    verify_lemma1,
    verify_lemma2,
)
from .dyadic import DyadicPoint, parse_point
from .fourier import exceed_density, parse_phi, strong_mean, strong_mean_bounds
from .walsh import GridVector, fwht

__all__ = ["main"]


def _header(subcommand: str, options: tuple[tuple[str, str], ...]) -> str:
    """The ``#`` lines that open every output: subcommand, then sorted options."""
    # no command draws at random; the line stays because the outputs
    # recorded in perfbench/digests.json hold it
    lines = [f"# walshdiv {subcommand}", "# seed=0"]
    lines += [f"# {key}={value}" for key, value in sorted(options)]
    return "\n".join(lines) + "\n"


def _exit_code(failures: list[str]) -> int:
    """1 after naming the first of ``failures`` on stderr, 0 when there are none."""
    if failures:
        print(f"FAILED ({len(failures)}): {readable(failures[0])}", file=sys.stderr)
        return 1
    return 0


def _emit(ns: SimpleNamespace, shown: str, text: str) -> None:
    """Print ``shown``, then ``text`` too, or write ``text`` to --out and say so.

    The file is written before anything is printed, so a path that cannot be
    written leaves stdout empty.
    """
    if ns.out:
        Path(ns.out).write_text(text)
        text = f"wrote {ns.out}\n"
    sys.stdout.write(shown)
    sys.stdout.write(text)


def _float(v) -> str:
    try:
        return f"{float(v):.12g}"
    except OverflowError:  # finite, but beyond double range
        v = Fraction(v)
        with mpmath.workdps(20):
            return mpmath.nstr(mpmath.mpf(v.numerator) / v.denominator, 12)


def _float_scaled(m: int, e: int, den: int) -> str:
    """_float of m·2^e/den, which is built exactly only within 2^(±2^21), the
    range of every exponential Φ under the exp argument cap."""
    top = m.bit_length() + e
    if abs(top) <= 1 << 21:
        return _float(Fraction(m) * Fraction(2) ** e / den)
    with mpmath.workdps(20):  # as _float rounds an overflow
        return "0" if top < 0 or not m else mpmath.nstr(mpmath.ldexp(m, e) / den, 12)


def _coefficient_rows(co: GridVector) -> str:
    """A newline and ``m,exact,float`` for every nonzero coefficient m, in
    index order, as one string.

    The construction's spectrum takes few distinct values (4 at n = 2, c = 3;
    10 at n = 3, c = 2), so each distinct value is formatted once, exactly as
    _frac and _float format it, and :func:`~walshdiv._kernels.decimal_rows`
    writes every row's index and that text as bytes in one numpy grid.
    """
    index = np.nonzero(co.numerators)[0]
    nonzero = co.numerators[index]
    values = np.unique(nonzero)
    fracs = (Fraction(int(v), co.denominator) for v in values)
    text = [f",{_frac(v)},{_float(v)}".encode("ascii") for v in fracs]
    return decimal_rows(index, text, np.searchsorted(values, nonzero))


def _mean_str(v: mpmath.mpf) -> str:
    return mpmath.nstr(v, 17)


def _index(v: int) -> str:
    """A spectral block end: decimal up to 60 digits, else ``2^e`` (longer ends
    are kernel orders, and q may pass Python's 4300-digit ``str`` limit)."""
    return str(v) if v < 10**60 else f"2^{v.bit_length() - 1}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _finish_reports(ns: SimpleNamespace, header: str, reports: list[LemmaReport]) -> int:
    """Write the reports' CSV to --out if given, print them, and map them to an
    exit code."""
    if ns.out:
        Path(ns.out).write_text(header + "".join(report.to_csv() for report in reports))
    sys.stdout.write(header + "".join(report.to_text() for report in reports))
    return _exit_code([
        f"{report.lemma}: {row.assertion}" + (f" [{row.witness}]" if row.witness else "")
        for report in reports
        for row in report.failures()
    ])


def _cmd_lemma2(ns: SimpleNamespace) -> int:
    report = verify_lemma2(ns.n, cap=ns.cap)
    options = (("n", str(ns.n)), ("mode", dict(report.parameters)["mode"]))
    return _finish_reports(ns, _header("lemma2", options), [report])


def _cmd_measure_en(ns: SimpleNamespace) -> int:
    n_min, n_max = ns.n_min, ns.n_max
    header = _header("measure-en", (("n_min", str(n_min)), ("n_max", str(n_max))))
    failures = []
    lines = ["n,measure_exact,measure_float,bound_upper_float,margin_float,verdict"]
    bits = MEASURE_BOUND_BITS
    for n, hits in measure_En_range(n_min, n_max):
        # |E_n| = hits/2^n and the bound's upper end bound_hi/2^bits; each
        # float is one correctly rounded int/int division, as float(Fraction) is
        verdict, (_, bound_hi) = measure_bound(n, hits)
        margin = (hits << bits) - (bound_hi << n)  # over 2^(n + bits)
        bound_text = _float(bound_hi / (1 << bits))
        if verdict == "fail":
            failures.append(f"measure-en: |E_{n}| is {_float(-margin / (1 << (n + bits)))} "
                            f"below the bound {bound_text}")
        lines.append(
            f"{n},{_dyadic(hits, n)},{_float(hits / (1 << n))},{bound_text},"
            f"{_float(margin / (1 << (n + bits)))},{verdict}"
        )
    _emit(ns, "", header + "\n".join(lines) + "\n")
    return _exit_code(failures)


def _cmd_build_fn(ns: SimpleNamespace) -> int:
    params = ConstructionParams(ns.n, ns.c)
    n, c = params.n, params.c
    if ns.dump_coefficients and params.q_exponent > GRID_CAP:
        raise ValueError(
            f"coefficient dump needs q = 2^{params.q_exponent} <= 2^{GRID_CAP}"
        )
    fn = params.fn
    cert = fn.norm1_certificate()
    failures = []
    if cert > 4:
        failures.append(f"build-fn: norm certificate {_frac(cert)} exceeds 4")
    header = _header(
        "build-fn",
        (("n", str(n)), ("c", str(c)), ("grid", str(params.q_exponent))),
    )
    summary = (
        f"construction n={n} c={c}: gamma={params.gamma} "
        f"p=2^{n} q=2^{params.q_exponent}\n"
        f"  atoms: 1 indicator + {2 * params.p} kernels\n"
        f"  L1 certificate: {_frac(cert)} ({_float(cert)}) <= 4: "
        f"{'yes' if cert <= 4 else 'NO'}\n"
        f"  spectral blocks: {len(fn.spectral_blocks)}, "
        f"span [{_index(fn.spectral_blocks[0].lo)}, {_index(fn.max_spectral_index)})\n"
    )
    lines = []
    if ns.dump_coefficients:
        co = fwht(fn.render(params.q_exponent))
        # the rows arrive as one string, each row led by its newline
        lines = ["index,value_exact,value_float" + _coefficient_rows(co)]
    elif ns.out:
        lines = ["lo,hi,owners"]
        for b in fn.spectral_blocks:
            owners = ";".join(b.owners)
            lines.append(f'{_index(b.lo)},{_index(b.hi)},"{owners}"')
    _emit(ns, header + summary, header + "\n".join(lines) + "\n" if lines else "")
    return _exit_code(failures)


def _cmd_lemma1(ns: SimpleNamespace) -> int:
    params = ConstructionParams(ns.n, ns.c)
    n, c = params.n, params.c
    params.check_buildable()  # before the header and any of the 2^(n+2) points
    if ns.x is not None:
        points, count = [parse_point(ns.x)], 1
    else:
        # one representative per level-(n+2) cell, dodging kernel supports
        count = 1 << (n + 2)
        points = (DyadicPoint(2 * i + 1, n + 3) for i in range(count))
    # every point is verified before the header, so a rejected point prints nothing
    reports = [verify_lemma1(params, x) for x in points]
    header = _header("lemma1", (("n", str(n)), ("c", str(c)), ("points", str(count))))
    return _finish_reports(ns, header, reports)


def _cmd_partial_sums(ns: SimpleNamespace) -> int:
    params = ConstructionParams(ns.n, ns.c)
    n, c = params.n, params.c
    x = parse_point(ns.x)
    if ns.l_max < ns.l_min or ns.l_min < 1:
        raise ValueError(f"bad cut range [{ns.l_min}, {ns.l_max}]")
    series = partial_sum_series(params, x, ns.l_max)
    grid = params.q_exponent if params.q_exponent <= GRID_CAP else "symbolic"
    header = _header(
        "partial-sums",
        (("n", str(n)), ("c", str(c)), ("x", x.to_text()),
         ("l_min", str(ns.l_min)), ("l_max", str(ns.l_max)),
         ("grid", str(grid))),
    )
    lines = ["l,value_exact,value_float"]
    for l in range(ns.l_min, ns.l_max + 1):
        v = series[l - 1]
        lines.append(f"{l},{_frac(v)},{_float(v)}")
    _emit(ns, "", header + "\n".join(lines) + "\n")
    return 0


def _cmd_strong_mean(ns: SimpleNamespace) -> int:
    params = ConstructionParams(ns.n, ns.c)
    n, c = params.n, params.c
    x = parse_point(ns.x)
    phis = [parse_phi(text) for text in ns.phi]
    try:
        n_list = sorted({int(tok) for tok in ns.n_list.split(",") if tok})
    except ValueError:
        n_list = []
    if not n_list or n_list[0] < 1:
        raise ValueError(f"bad N list {ns.n_list!r}")
    threshold = Fraction(n, 40) if ns.threshold is None else ns.threshold
    if threshold < 0:
        raise ValueError(f"--threshold must be at least 0, got {_frac(threshold)}")
    center = ns.center
    sums = WindowSums(params, x, n_list[-1])  # one build serves every N
    censuses = {N: sums.census(N) for N in n_list}
    grid = params.q_exponent if params.q_exponent <= GRID_CAP else "symbolic"
    header = _header(
        "strong-mean",
        (("n", str(n)), ("c", str(c)), ("x", x.to_text()),
         ("threshold", _frac(threshold)), ("center", _frac(center)),
         ("grid", str(grid)),
         ("phis", ";".join(p.to_text() for p in phis))),
    )
    failures = []
    lines = ["phi,N,mean,density_exact,density_float,markov_lhs_float,verdict"]
    for phi in phis:
        tau_lo, tau_hi, tau_e = phi.enclosure(threshold)
        for N in n_list:
            mean = strong_mean(censuses[N], phi, N, s=center)
            density = exceed_density(censuses[N], threshold, N, s=center)
            # density·Φ(τ) ≤ mean, multiplied through by N
            exceed = (density * N).numerator
            mean_lo, mean_hi, mean_e = strong_mean_bounds(censuses[N], phi, N, s=center)
            if scaled_le(exceed * tau_hi, tau_e, N * mean_lo, mean_e):
                verdict = "pass"
            elif not scaled_le(exceed * tau_lo, tau_e, N * mean_hi, mean_e):
                verdict = "fail"
                failures.append(
                    f"strong-mean: density*phi > mean at phi={phi.to_text()} N={N}"
                )
            else:
                verdict = "reported"
            lines.append(
                f"{phi.to_text()},{N},{_mean_str(mean)},{_frac(density)},"
                f"{_float(density)},{_float_scaled(exceed * tau_hi, tau_e, N)},{verdict}"
            )
    _emit(ns, "", header + "\n".join(lines) + "\n")
    return _exit_code(failures)


def _cmd_chain_check(ns: SimpleNamespace) -> int:
    phi = parse_phi(ns.phi)
    report = chain_check(ns.n, ns.k, phi)
    header = _header(
        "chain-check",
        (("n", str(ns.n)), ("k", str(ns.k)), ("phi", phi.to_text())),
    )
    return _finish_reports(ns, header, [report])


# ---------------------------------------------------------------------------
# option table and parser
# ---------------------------------------------------------------------------


def _rational(text: str) -> Fraction:
    return Fraction(text)


_REQUIRED = object()  # the default of an option that must be given

_OUT = ("--out", str, None, "write the CSV table to this path")
_N_C = (("--n", int, 2, "construction order"), ("--c", int, 3, "growth constant"))
_X = "evaluation point a/2^e"

# subcommand -> (help, handler, options), in the order help lists them.  An
# option is (flag, converter, default, help): converter None makes a switch,
# a list default a repeatable option whose given values replace the default.
_SUBCOMMANDS = {
    "lemma2": ("verify the sign-change lemma", _cmd_lemma2, (
        _OUT,
        ("--n", int, 12, "order"),
        ("--cap", int, EXHAUSTIVE_CAP, "scan every order up to this cap; the "
         "closed form decides the others where it can"),
    )),
    "measure-en": ("exact measure table against the bound", _cmd_measure_en, (
        _OUT,
        ("--n-min", int, 1, "first order"),
        ("--n-max", int, 100, "last order"),
    )),
    "build-fn": ("construction summary / coefficient dump", _cmd_build_fn, (
        _OUT, *_N_C,
        ("--dump-coefficients", None, False, "tabulate every nonzero coefficient"),
    )),
    "lemma1": ("partial-sum verification at a point", _cmd_lemma1, (
        _OUT, *_N_C,
        ("--x", str, None, f"{_X} (default: all cells)"),
    )),
    "partial-sums": ("S_l table over a cut range", _cmd_partial_sums, (
        _OUT, *_N_C,
        ("--x", str, _REQUIRED, _X),
        ("--l-min", int, 1, "first cut"),
        ("--l-max", int, _REQUIRED, "last cut"),
    )),
    "strong-mean": ("strong means table over N", _cmd_strong_mean, (
        _OUT, *_N_C,
        ("--x", str, _REQUIRED, _X),
        ("--phi", str, ["exppow:2"], "growth function pow:p | exp:c | exppow:a"),
        ("--N-list", str, "16,256,4096", "comma-separated cut counts"),
        ("--threshold", _rational, None, "exceedance threshold (default: n/40)"),
        ("--center", _rational, Fraction(0), "center s of |S_k - s|"),
    )),
    "chain-check": ("scalar inequality chains", _cmd_chain_check, (
        _OUT,
        ("--n", int, 151, "order"),
        ("--k", int, 1, "stage"),
        ("--phi", str, "exppow:2", "growth function pow:p | exp:c | exppow:a"),
    )),
}

_HELP = ("-h", "--help")


def _help(name: str | None) -> str:
    """Usage of ``name``, or of the whole command line when it is None."""
    if name is None:
        lines = ["usage: walshdiv SUBCOMMAND [OPTIONS]", "",
                 "Exact verification tools for a Walsh-series divergence "
                 "construction.", "", "subcommands:"]
        lines += [f"  {sub:<14}{spec[0]}" for sub, spec in _SUBCOMMANDS.items()]
        lines += ["", "'walshdiv SUBCOMMAND -h' lists its options."]
    else:
        help_text, _, options = _SUBCOMMANDS[name]
        lines = [f"usage: walshdiv {name} [OPTIONS]", "", help_text, "", "options:",
                 "  -h, --help              show this help"]
        for flag, convert, default, text in options:
            if convert is not None:
                flag = f"{flag} {flag[2:].upper().replace('-', '_')}"
            if default is _REQUIRED:
                text += " (required)"
            elif isinstance(default, list):
                text += f" (repeatable; default: {', '.join(default)})"
            elif default is not None and convert is not None:
                text += f" (default: {default})"
            lines.append(f"  {flag:<24}{text}")
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace] | None:
    """The handler ``argv`` names and its options, as ``ns.n``, ``ns.n_list``, …

    Returns None after printing help; every misuse raises ValueError with a
    one-line message.
    """
    if not argv:
        raise ValueError(f"missing subcommand; choose from {', '.join(_SUBCOMMANDS)}")
    name, *args = argv
    if name in _HELP:
        sys.stdout.write(_help(None))
        return None
    if name not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {name!r}; choose from "
                         f"{', '.join(_SUBCOMMANDS)}")
    _, handler, options = _SUBCOMMANDS[name]
    specs = {spec[0]: spec for spec in options}
    given: dict[str, object] = {}
    tokens = iter(args)
    for token in tokens:
        if token in _HELP:
            sys.stdout.write(_help(name))
            return None
        flag, eq, text = token.partition("=")
        if flag not in specs:
            kind = "option" if token.startswith("-") else "argument"
            raise ValueError(f"{name}: unknown {kind} {flag!r}")
        _, convert, default, _ = specs[flag]
        if convert is None:
            if eq:
                raise ValueError(f"{flag} takes no value")
            given[flag] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise ValueError(f"{flag} needs a value")
        try:
            value = convert(text)
        except (ValueError, ArithmeticError):
            kind = convert.__name__.strip("_")
            raise ValueError(f"{flag}: invalid {kind} value {text!r}") from None
        if isinstance(default, list):
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
    values = {}
    for flag, _, default, _ in options:
        if default is _REQUIRED and flag not in given:
            raise ValueError(f"{name} needs {flag}")
        values[flag[2:].replace("-", "_").lower()] = given.get(flag, default)
    return handler, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parsed = _parse(argv)
        if parsed is None:
            return 0
        handler, ns = parsed
        return handler(ns)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"walshdiv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
