"""Command-line front end: verifications, tables, and SVG plots.

Subcommands
-----------
``lemma2``        sign-change-set verification (exhaustive scan or closed form)
``measure-en``    exact |E_n| table against the exponential bound
``build-fn``      construction summary, optional coefficient dump
``lemma1``        partial-sum verification at a point or all base cells
``partial-sums``  S_l table over a cut range at a point
``strong-mean``   strong means table over N for a list of growth functions
``chain-check``   scalar inequality chains at (n, k, Φ)
``plot``          CSV table → SVG 1.1 polyline

Conventions: parameters come from flags only, each with its default in the
subcommand's parser.  Every output starts with ``#`` comment lines echoing
the subcommand and effective parameters; identical invocations produce
byte-identical output.  With ``--out`` the file is written before anything
is printed, so a path that cannot be written leaves stdout empty.  The exit
status is 0 exactly when no asserted row failed, 1 when one did, and 2 when
the parameters are rejected or a file cannot be read or written (one
``walshdiv: error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

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
        print(f"FAILED ({len(failures)}): {failures[0]}", file=sys.stderr)
        return 1
    return 0


def _emit(ns: argparse.Namespace, shown: str, text: str) -> None:
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


def _coefficient_rows(co: GridVector) -> list[str]:
    """``m,exact,float`` for every nonzero coefficient m, in index order.

    The construction's spectrum takes few distinct values (4 at n = 2, c = 3;
    10 at n = 3, c = 2), so each distinct value is formatted once, exactly as
    _frac and _float format it, and each row only joins an index to its text.
    """
    index = np.nonzero(co.numerators)[0]
    values, which = np.unique(co.numerators[index], return_inverse=True)
    fracs = (Fraction(int(v), co.denominator) for v in values)
    text = [f"{_frac(v)},{_float(v)}" for v in fracs]
    return [f"{m},{text[j]}" for m, j in zip(index.tolist(), which.tolist())]


def _mean_str(v: mpmath.mpf) -> str:
    return mpmath.nstr(v, 17)


def _index(v: int) -> str:
    """A spectral block end: decimal up to 60 digits, else ``2^e`` (longer ends
    are kernel orders, and q may pass Python's 4300-digit ``str`` limit)."""
    return str(v) if v < 10**60 else f"2^{v.bit_length() - 1}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _finish_reports(ns: argparse.Namespace, header: str, reports: list[LemmaReport]) -> int:
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


def _cmd_lemma2(ns: argparse.Namespace) -> int:
    report = verify_lemma2(ns.n, cap=ns.cap)
    options = (("n", str(ns.n)), ("mode", dict(report.parameters)["mode"]))
    return _finish_reports(ns, _header("lemma2", options), [report])


def _cmd_measure_en(ns: argparse.Namespace) -> int:
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


def _cmd_build_fn(ns: argparse.Namespace) -> int:
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
        lines = ["index,value_exact,value_float", *_coefficient_rows(co)]
    elif ns.out:
        lines = ["lo,hi,owners"]
        for b in fn.spectral_blocks:
            owners = ";".join(b.owners)
            lines.append(f'{_index(b.lo)},{_index(b.hi)},"{owners}"')
    _emit(ns, header + summary, header + "\n".join(lines) + "\n" if lines else "")
    return _exit_code(failures)


def _cmd_lemma1(ns: argparse.Namespace) -> int:
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


def _cmd_partial_sums(ns: argparse.Namespace) -> int:
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


def _cmd_strong_mean(ns: argparse.Namespace) -> int:
    params = ConstructionParams(ns.n, ns.c)
    n, c = params.n, params.c
    x = parse_point(ns.x)
    phis = [parse_phi(text) for text in (ns.phi or ["exppow:2"])]
    try:
        n_list = sorted({int(tok) for tok in ns.n_list.split(",") if tok})
    except ValueError:
        n_list = []
    if not n_list or n_list[0] < 1:
        raise ValueError(f"bad N list {ns.n_list!r}")
    threshold = Fraction(ns.threshold) if ns.threshold else Fraction(n, 40)
    center = Fraction(ns.center)
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
        phi_lo, phi_hi = phi.enclosure(threshold)
        for N in n_list:
            mean = strong_mean(censuses[N], phi, N, s=center)
            density = exceed_density(censuses[N], threshold, N)
            lhs_hi = density * phi_hi
            if mpmath.isinf(mean):
                verdict = "pass"  # any finite lhs is below an infinite mean
            else:
                mean_lo, mean_hi = strong_mean_bounds(censuses[N], phi, N, s=center)
                if lhs_hi <= mean_lo:
                    verdict = "pass"
                elif density * phi_lo > mean_hi:
                    verdict = "fail"
                    failures.append(
                        f"strong-mean: density*phi > mean at phi={phi.to_text()} N={N}"
                    )
                else:
                    verdict = "reported"
            lines.append(
                f"{phi.to_text()},{N},{_mean_str(mean)},{_frac(density)},"
                f"{_float(density)},{_float(lhs_hi)},{verdict}"
            )
    _emit(ns, "", header + "\n".join(lines) + "\n")
    return _exit_code(failures)


def _cmd_chain_check(ns: argparse.Namespace) -> int:
    phi = parse_phi(ns.phi)
    report = chain_check(ns.n, ns.k, phi)
    header = _header(
        "chain-check",
        (("n", str(ns.n)), ("k", str(ns.k)), ("phi", phi.to_text())),
    )
    return _finish_reports(ns, header, [report])


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    data_lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not data_lines:
        raise ValueError(f"{path}: no table found")
    parsed = list(csv.reader(data_lines))
    header = [c.strip() for c in parsed[0]]
    rows = [[c.strip() for c in row] for row in parsed[1:]]
    return header, rows


def _column(header: list[str], rows: list[list[str]], spec: str) -> list[float]:
    if spec.isdigit():
        idx = int(spec)
        if idx >= len(header):
            raise ValueError(f"column index {idx} out of range for {header}")
    else:
        try:
            idx = header.index(spec)
        except ValueError:
            raise ValueError(f"no column {spec!r} in {header}") from None
    out = []
    for row in rows:
        cell = row[idx]
        try:
            out.append(float(Fraction(cell)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"column {spec!r}: non-numeric cell {cell!r}") from None
    return out


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _svg_polyline(
    xs: list[float],
    ys: list[float],
    title: str,
    log_y: bool,
) -> str:
    width, height, margin = 640.0, 420.0, 56.0
    if log_y:
        if min(ys) <= 0:
            raise ValueError("log scale requires strictly positive y values")
        ys = [math.log10(v) for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    span_x, span_y = x_hi - x_lo, y_hi - y_lo
    inner_w, inner_h = width - 2 * margin, height - 2 * margin

    def px(vx: float) -> float:
        return margin + (vx - x_lo) / span_x * inner_w

    def py(vy: float) -> float:
        return height - margin - (vy - y_lo) / span_y * inner_h

    def fmt_tick(v: float) -> str:
        return f"{10.0 ** v:.3g}" if log_y else f"{v:.6g}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" '
        f'fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{_xml_escape(title)}</text>',
        f'<line x1="{margin:.1f}" y1="{height - margin:.1f}" '
        f'x2="{width - margin:.1f}" y2="{height - margin:.1f}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{margin:.1f}" y1="{margin:.1f}" '
        f'x2="{margin:.1f}" y2="{height - margin:.1f}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{height - margin:.1f}" '
            f'x2="{tx:.2f}" y2="{height - margin + 5:.1f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{height - margin + 18:.1f}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">'
            f"{tick:.6g}</text>"
        )
    for tick in _ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(
            f'<line x1="{margin - 5:.1f}" y1="{ty:.2f}" '
            f'x2="{margin:.1f}" y2="{ty:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin - 8:.1f}" y="{ty + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{fmt_tick(tick)}</text>'
        )
    points = " ".join(f"{px(vx):.2f},{py(vy):.2f}" for vx, vy in zip(xs, ys))
    parts.append(
        f'<polyline fill="none" stroke="#1f6feb" stroke-width="1.5" '
        f'points="{points}"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _cmd_plot(ns: argparse.Namespace) -> int:
    header, rows = _read_table(ns.table)
    if not rows:
        raise ValueError(f"{ns.table}: table has no data rows")
    xs = _column(header, rows, ns.x_col)
    ys = _column(header, rows, ns.y_col)
    title = ns.title or f"{ns.y_col} vs {ns.x_col}"
    svg = _svg_polyline(xs, ys, title, ns.log_y)
    Path(ns.svg).write_text(svg)
    print(f"wrote {ns.svg} ({len(rows)} points)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors end in one ``walshdiv: error:`` line; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"walshdiv: error: {message}\n")


def _common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write CSV output to this path")


def _construction_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--c", type=int, default=3)


def _lemma2_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--cap", type=int, default=EXHAUSTIVE_CAP,
                   help="scan every order up to this cap (default: %(default)s); "
                   "the closed form decides the others where it can")


def _measure_en_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=100)


def _build_fn_options(p: argparse.ArgumentParser) -> None:
    _construction_options(p)
    p.add_argument("--dump-coefficients", action="store_true")


def _lemma1_options(p: argparse.ArgumentParser) -> None:
    _construction_options(p)
    p.add_argument("--x", help="evaluation point a/2^e (default: all cells)")


def _partial_sums_options(p: argparse.ArgumentParser) -> None:
    _construction_options(p)
    p.add_argument("--x", required=True, help="evaluation point a/2^e")
    p.add_argument("--l-min", type=int, default=1)
    p.add_argument("--l-max", type=int, required=True)


def _strong_mean_options(p: argparse.ArgumentParser) -> None:
    _construction_options(p)
    p.add_argument("--x", required=True, help="evaluation point a/2^e")
    p.add_argument("--phi", action="append",
                   help="growth function pow:p | exp:c | exppow:a (repeatable)")
    p.add_argument("--N-list", dest="n_list", default="16,256,4096",
                   help="comma-separated cut counts")
    p.add_argument("--threshold", help="exceedance threshold (default n/40)")
    p.add_argument("--center", default="0", help="center s of |S_k - s|")


def _chain_check_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    p.add_argument("--n", type=int, default=151)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--phi", default="exppow:2")


def _plot_options(p: argparse.ArgumentParser) -> None:
    _common_options(p)
    p.add_argument("--table", required=True, help="input CSV path")
    p.add_argument("--x-col", required=True, help="column name or index")
    p.add_argument("--y-col", required=True, help="column name or index")
    p.add_argument("--svg", required=True, help="output SVG path")
    p.add_argument("--log-y", action="store_true")
    p.add_argument("--title", default="")


# subcommand -> (help, handler, options), in the order help lists them
_SUBCOMMANDS = {
    "lemma2": ("verify the sign-change lemma", _cmd_lemma2, _lemma2_options),
    "measure-en": ("exact measure table against the bound", _cmd_measure_en,
                   _measure_en_options),
    "build-fn": ("construction summary / coefficient dump", _cmd_build_fn,
                 _build_fn_options),
    "lemma1": ("partial-sum verification at a point", _cmd_lemma1, _lemma1_options),
    "partial-sums": ("S_l table over a cut range", _cmd_partial_sums,
                     _partial_sums_options),
    "strong-mean": ("strong means table over N", _cmd_strong_mean,
                    _strong_mean_options),
    "chain-check": ("scalar inequality chains", _cmd_chain_check,
                    _chain_check_options),
    "plot": ("CSV table to SVG polyline", _cmd_plot, _plot_options),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """Only the subparser ``argv[0]`` names, or all of them when it names none,
    so top-level help and the invalid-choice error list every subcommand."""
    parser = _Parser(
        prog="walshdiv",
        description="Exact verification tools for a Walsh-series divergence "
        "construction.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    for name in names:
        help_text, handler, add_options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ns = _build_parser(argv).parse_args(argv)
    try:
        return ns.handler(ns)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"walshdiv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
