"""Command-line front end: verifications, tables, and SVG plots.

Subcommands
-----------
``lemma2``        sign-change-set verification (exhaustive or sampled)
``measure-en``    exact |E_n| table against the exponential bound
``build-fn``      construction summary, optional coefficient dump
``lemma1``        partial-sum verification at a point or all base cells
``partial-sums``  S_l table over a cut range at a point
``strong-mean``   strong means table over N for a list of growth functions
``chain-check``   scalar inequality chains at (n, k, Φ)
``plot``          CSV table → SVG 1.1 polyline

Conventions: every output starts with ``#`` comment lines echoing the
subcommand, seed, and effective parameters; identical invocations produce
byte-identical output.  The exit status is 0 exactly when no asserted row
failed.  ``WALSHDIV_WORKERS`` caps worker threads used by the library's
parallel scans.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath

from . import bounds
from .counterexample import (
    EXHAUSTIVE_CAP,
    GRID_CAP,
    ConstructionParams,
    LemmaReport,
    build_fn,
    chain_check,
    measure_En_range,
    partial_sum_series,
    verify_lemma1,
    verify_lemma2,
)
from .dyadic import DyadicPoint, parse_point
from .fourier import exceed_density, parse_phi, strong_mean, strong_mean_bounds
from .walsh import fwht

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Effective invocation: subcommand, resolved parameters, seed."""

    subcommand: str
    options: tuple[tuple[str, str], ...]
    seed: int

    def header_lines(self) -> list[str]:
        lines = [f"# walshdiv {self.subcommand}", f"# seed={self.seed}"]
        lines += [f"# {key}={value}" for key, value in sorted(self.options)]
        return lines


class _Failure:
    """First-failure tracker mapped to the exit status."""

    def __init__(self) -> None:
        self.count = 0
        self.first: str | None = None

    def add(self, message: str) -> None:
        self.count += 1
        if self.first is None:
            self.first = message

    def absorb_report(self, report: LemmaReport) -> None:
        for row in report.failures():
            witness = f" [{row.witness}]" if row.witness else ""
            self.add(f"{report.lemma}: {row.assertion}{witness}")

    def exit_code(self) -> int:
        if self.count:
            print(f"FAILED ({self.count}): {self.first}", file=sys.stderr)
            return 1
        return 0


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {"n": int, "c": int, "grid_cap": int, "samples": int}


def _load_config(path: str) -> dict[str, int]:
    values: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise SystemExit(f"{path}:{lineno}: expected one of "
                             f"{sorted(_CONFIG_KEYS)} as 'key=value', got {raw!r}")
        values[key] = _CONFIG_KEYS[key](value)
    return values


def _resolve(ns: argparse.Namespace, key: str, default: int) -> int:
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(ns, key, None)
    if flag is not None:
        return flag
    return ns.config_values.get(key, default)


def _emit(ns: argparse.Namespace, config: RunConfig, payload: str) -> None:
    """Write header + payload to --out (and stdout for table subcommands)."""
    text = "\n".join(config.header_lines()) + "\n" + payload
    if ns.out:
        Path(ns.out).write_text(text)
    else:
        sys.stdout.write(text)


def _frac(v: Fraction) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _float(v) -> str:
    try:
        return f"{float(v):.12g}"
    except OverflowError:  # finite, but beyond double range
        v = Fraction(v)
        with mpmath.workdps(20):
            return mpmath.nstr(mpmath.mpf(v.numerator) / v.denominator, 12)


def _mean_str(v: mpmath.mpf) -> str:
    return mpmath.nstr(v, 17)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _print_report(config: RunConfig, report: LemmaReport) -> None:
    print("\n".join(config.header_lines()))
    print(report.to_text(), end="")


def _cmd_lemma2(ns: argparse.Namespace) -> int:
    n = _resolve(ns, "n", 12)
    samples = _resolve(ns, "samples", 10_000)
    report = verify_lemma2(n, mode=ns.mode, samples=samples, seed=ns.seed,
                           cap=_resolve(ns, "cap", EXHAUSTIVE_CAP))
    options = [("n", str(n)), ("mode", ns.mode)]
    if ns.mode == "sample":
        options.append(("samples", str(samples)))
    config = RunConfig("lemma2", tuple(options), ns.seed)
    _print_report(config, report)
    if ns.out:
        _emit(ns, config, report.to_csv())
    failures = _Failure()
    failures.absorb_report(report)
    return failures.exit_code()


def _cmd_measure_en(ns: argparse.Namespace) -> int:
    n_min, n_max = ns.n_min, ns.n_max
    config = RunConfig(
        "measure-en", (("n_min", str(n_min)), ("n_max", str(n_max))), ns.seed
    )
    failures = _Failure()
    lines = ["n,measure_exact,measure_float,bound_upper_float,margin_float,verdict"]
    for n, measure in measure_En_range(n_min, n_max):
        lo, _ = bounds.exp_enclosure(Fraction(-n, 36), 96)
        bound_hi = 1 - 2 * lo  # certified upper end of 1 - 2e^{-n/36}
        if bound_hi <= 0:
            verdict = "vacuous"
        elif measure > bound_hi:
            verdict = "pass"
        else:
            verdict = "fail"
            failures.add(f"measure-en: |E_{n}| = {_frac(measure)} misses the bound")
        lines.append(
            f"{n},{_frac(measure)},{_float(measure)},{_float(bound_hi)},"
            f"{_float(measure - bound_hi)},{verdict}"
        )
    _emit(ns, config, "\n".join(lines) + "\n")
    if ns.out:
        print(f"wrote {ns.out}")
    return failures.exit_code()


def _cmd_build_fn(ns: argparse.Namespace) -> int:
    n = _resolve(ns, "n", 2)
    c = _resolve(ns, "c", 3)
    grid_cap = _resolve(ns, "grid_cap", GRID_CAP)
    params = ConstructionParams(n, c)
    fn = build_fn(params)
    cert = fn.norm1_certificate()
    failures = _Failure()
    if cert > 4:
        failures.add(f"build-fn: norm certificate {_frac(cert)} exceeds 4")
    config = RunConfig(
        "build-fn",
        (("n", str(n)), ("c", str(c)), ("grid", str(params.q_exponent))),
        ns.seed,
    )
    print("\n".join(config.header_lines()))
    print(f"construction n={n} c={c}: gamma={params.gamma} "
          f"p=2^{n} q=2^{params.q_exponent}")
    print(f"  atoms: 1 indicator + {2 * params.p} kernels")
    print(f"  L1 certificate: {_frac(cert)} ({_float(cert)}) <= 4: "
          f"{'yes' if cert <= 4 else 'NO'}")
    print(f"  spectral blocks: {len(fn.spectral_blocks)}, "
          f"span [{fn.spectral_blocks[0].lo}, {fn.max_spectral_index})")
    if ns.dump_coefficients:
        if params.q_exponent > grid_cap:
            raise SystemExit(
                f"coefficient dump needs q = 2^{params.q_exponent} <= 2^{grid_cap}"
            )
        co = fwht(fn.render(params.q_exponent, cap=grid_cap))
        lines = ["index,value_exact,value_float"]
        for m in co.nonzero_indices():
            v = co[m]
            lines.append(f"{m},{_frac(v)},{_float(v)}")
        _emit(ns, config, "\n".join(lines) + "\n")
        if ns.out:
            print(f"wrote {ns.out}")
    elif ns.out:
        lines = ["lo,hi,owners"]
        for b in fn.spectral_blocks:
            owners = ";".join(b.owners)
            lines.append(f'{b.lo},{b.hi},"{owners}"')
        _emit(ns, config, "\n".join(lines) + "\n")
        print(f"wrote {ns.out}")
    return failures.exit_code()


def _cmd_lemma1(ns: argparse.Namespace) -> int:
    n = _resolve(ns, "n", 2)
    c = _resolve(ns, "c", 3)
    grid_cap = _resolve(ns, "grid_cap", GRID_CAP)
    params = ConstructionParams(n, c)
    if ns.x is not None:
        points = [parse_point(ns.x)]
    else:
        # one representative per level-(n+2) cell, dodging kernel supports
        points = [DyadicPoint(2 * i + 1, n + 3) for i in range(1 << (n + 2))]
    config = RunConfig(
        "lemma1",
        (("n", str(n)), ("c", str(c)), ("points", str(len(points)))),
        ns.seed,
    )
    print("\n".join(config.header_lines()))
    failures = _Failure()
    csv_parts = []
    for x in points:
        report = verify_lemma1(params, x, grid_cap=grid_cap)
        print(report.to_text(), end="")
        csv_parts.append(report.to_csv())
        failures.absorb_report(report)
    if ns.out:
        _emit(ns, config, "".join(csv_parts))
    return failures.exit_code()


def _cmd_partial_sums(ns: argparse.Namespace) -> int:
    n = _resolve(ns, "n", 2)
    c = _resolve(ns, "c", 3)
    grid_cap = _resolve(ns, "grid_cap", GRID_CAP)
    params = ConstructionParams(n, c)
    x = parse_point(ns.x)
    if ns.l_max < ns.l_min or ns.l_min < 1:
        raise SystemExit(f"bad cut range [{ns.l_min}, {ns.l_max}]")
    series = partial_sum_series(params, x, ns.l_max, grid_cap=grid_cap)
    grid = params.q_exponent if params.q_exponent <= grid_cap else "symbolic"
    config = RunConfig(
        "partial-sums",
        (("n", str(n)), ("c", str(c)), ("x", x.to_text()),
         ("l_min", str(ns.l_min)), ("l_max", str(ns.l_max)),
         ("grid", str(grid))),
        ns.seed,
    )
    lines = ["l,value_exact,value_float"]
    for l in range(ns.l_min, ns.l_max + 1):
        v = series[l - 1]
        lines.append(f"{l},{_frac(v)},{_float(v)}")
    _emit(ns, config, "\n".join(lines) + "\n")
    if ns.out:
        print(f"wrote {ns.out}")
    return 0


def _cmd_strong_mean(ns: argparse.Namespace) -> int:
    n = _resolve(ns, "n", 2)
    c = _resolve(ns, "c", 3)
    grid_cap = _resolve(ns, "grid_cap", GRID_CAP)
    params = ConstructionParams(n, c)
    x = parse_point(ns.x)
    phis = [parse_phi(text) for text in (ns.phi or ["exppow:2"])]
    n_list = sorted({int(tok) for tok in ns.n_list.split(",") if tok})
    if not n_list or n_list[0] < 1:
        raise SystemExit(f"bad N list {ns.n_list!r}")
    threshold = Fraction(ns.threshold) if ns.threshold else Fraction(n, 40)
    center = Fraction(ns.center)
    series = partial_sum_series(params, x, n_list[-1], grid_cap=grid_cap)
    grid = params.q_exponent if params.q_exponent <= grid_cap else "symbolic"
    config = RunConfig(
        "strong-mean",
        (("n", str(n)), ("c", str(c)), ("x", x.to_text()),
         ("threshold", _frac(threshold)), ("center", _frac(center)),
         ("grid", str(grid)),
         ("phis", ";".join(p.to_text() for p in phis))),
        ns.seed,
    )
    failures = _Failure()
    lines = ["phi,N,mean,density_exact,density_float,markov_lhs_float,verdict"]
    for phi in phis:
        phi_lo, phi_hi = phi.enclosure(threshold)
        for N in n_list:
            mean = strong_mean(series, phi, N, s=center)
            density = exceed_density(series, threshold, N)
            lhs_hi = density * phi_hi
            if mpmath.isinf(mean):
                verdict = "pass"  # any finite lhs is below an infinite mean
            else:
                mean_lo, mean_hi = strong_mean_bounds(series, phi, N, s=center)
                if lhs_hi <= mean_lo:
                    verdict = "pass"
                elif density * phi_lo > mean_hi:
                    verdict = "fail"
                    failures.add(
                        f"strong-mean: density*phi > mean at phi={phi.to_text()} N={N}"
                    )
                else:
                    verdict = "reported"
            lines.append(
                f"{phi.to_text()},{N},{_mean_str(mean)},{_frac(density)},"
                f"{_float(density)},{_float(lhs_hi)},{verdict}"
            )
    _emit(ns, config, "\n".join(lines) + "\n")
    if ns.out:
        print(f"wrote {ns.out}")
    return failures.exit_code()


def _cmd_chain_check(ns: argparse.Namespace) -> int:
    n = _resolve(ns, "n", 151)
    phi = parse_phi(ns.phi)
    report = chain_check(n, ns.k, phi)
    config = RunConfig(
        "chain-check",
        (("n", str(n)), ("k", str(ns.k)), ("phi", phi.to_text())),
        ns.seed,
    )
    _print_report(config, report)
    if ns.out:
        _emit(ns, config, report.to_csv())
    failures = _Failure()
    failures.absorb_report(report)
    return failures.exit_code()


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
        raise SystemExit(f"{path}: no table found")
    parsed = list(csv.reader(data_lines))
    header = [c.strip() for c in parsed[0]]
    rows = [[c.strip() for c in row] for row in parsed[1:]]
    return header, rows


def _column(header: list[str], rows: list[list[str]], spec: str) -> list[float]:
    if spec.isdigit():
        idx = int(spec)
        if idx >= len(header):
            raise SystemExit(f"column index {idx} out of range for {header}")
    else:
        try:
            idx = header.index(spec)
        except ValueError:
            raise SystemExit(f"no column {spec!r} in {header}") from None
    out = []
    for row in rows:
        cell = row[idx]
        try:
            out.append(float(Fraction(cell)))
        except (ValueError, ZeroDivisionError):
            raise SystemExit(f"column {spec!r}: non-numeric cell {cell!r}") from None
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
            raise SystemExit("log scale requires strictly positive y values")
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
        raise SystemExit(f"{ns.table}: table has no data rows")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshdiv",
        description="Exact verification tools for a Walsh-series divergence "
        "construction.",
        epilog="Environment: WALSHDIV_WORKERS caps worker threads for "
        "parallel scans.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file (n, c, grid_cap, samples)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled modes (echoed in every header)")
    common.add_argument("--out", help="write CSV output to this path")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lemma2", parents=[common],
                       help="verify the sign-change lemma")
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=("exhaustive", "sample"),
                   default="exhaustive")
    p.add_argument("--samples", type=int)
    p.add_argument("--cap", type=int, help="exhaustive-mode cap on n")
    p.set_defaults(handler=_cmd_lemma2)

    p = sub.add_parser("measure-en", parents=[common],
                       help="exact measure table against the bound")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=100)
    p.set_defaults(handler=_cmd_measure_en)

    p = sub.add_parser("build-fn", parents=[common],
                       help="construction summary / coefficient dump")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--grid-cap", type=int, dest="grid_cap")
    p.add_argument("--dump-coefficients", action="store_true")
    p.set_defaults(handler=_cmd_build_fn)

    p = sub.add_parser("lemma1", parents=[common],
                       help="partial-sum verification at a point")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--grid-cap", type=int, dest="grid_cap")
    p.add_argument("--x", help="evaluation point a/2^e (default: all cells)")
    p.set_defaults(handler=_cmd_lemma1)

    p = sub.add_parser("partial-sums", parents=[common],
                       help="S_l table over a cut range")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--grid-cap", type=int, dest="grid_cap")
    p.add_argument("--x", required=True, help="evaluation point a/2^e")
    p.add_argument("--l-min", type=int, default=1)
    p.add_argument("--l-max", type=int, required=True)
    p.set_defaults(handler=_cmd_partial_sums)

    p = sub.add_parser("strong-mean", parents=[common],
                       help="strong means table over N")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--grid-cap", type=int, dest="grid_cap")
    p.add_argument("--x", required=True, help="evaluation point a/2^e")
    p.add_argument("--phi", action="append",
                   help="growth function pow:p | exp:c | exppow:a (repeatable)")
    p.add_argument("--N-list", dest="n_list", default="16,256,4096",
                   help="comma-separated cut counts")
    p.add_argument("--threshold", help="exceedance threshold (default n/40)")
    p.add_argument("--center", default="0", help="center s of |S_k - s|")
    p.set_defaults(handler=_cmd_strong_mean)

    p = sub.add_parser("chain-check", parents=[common],
                       help="scalar inequality chains")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--phi", default="exppow:2")
    p.set_defaults(handler=_cmd_chain_check)

    p = sub.add_parser("plot", parents=[common],
                       help="CSV table to SVG polyline")
    p.add_argument("--table", required=True, help="input CSV path")
    p.add_argument("--x-col", required=True, help="column name or index")
    p.add_argument("--y-col", required=True, help="column name or index")
    p.add_argument("--svg", required=True, help="output SVG path")
    p.add_argument("--log-y", action="store_true")
    p.add_argument("--title", default="")
    p.set_defaults(handler=_cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    ns.config_values = _load_config(ns.config) if ns.config else {}
    return ns.handler(ns)


if __name__ == "__main__":
    raise SystemExit(main())
