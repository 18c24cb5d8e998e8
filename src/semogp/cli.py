"""Command-line interface: run experiments, summarize results, make data."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .dataset import write_synthetic_csv
from .harness import ExperimentConfig, format_summary, load_results, run_experiment, summarize


def _list(text: str):
    """Comma-separated grid values, stripped and left for the config to check: one string or a list."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    return parts[0] if len(parts) == 1 else parts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semogp",
        description="Semantic multi-objective genetic programming experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configuration (grids are expanded)")
    run_p.add_argument("--config", required=True, help="JSON configuration file")
    run_p.add_argument("--seed", type=int, action="append", help="override seeds (repeatable)")
    run_p.add_argument("--engine", type=_list, help="override engine(s), comma separated: nsga2, spea2, moead")
    run_p.add_argument("--approach", type=_list, help="override approach(es), comma separated: canonical, ssc, scd, sdo")
    run_p.add_argument("--lbss", type=_list, help="lower similarity bound(s), comma separated")
    run_p.add_argument("--ubss", type=_list, help="upper similarity bound(s), comma separated")
    run_p.add_argument("--distance-rule", dest="distance_rule", help="above or band")
    run_p.add_argument("--out", help="override output directory")

    sum_p = sub.add_parser("summarize", help="summarize a directory of results")
    sum_p.add_argument("--in", dest="in_dir", required=True, help="results directory")

    gen_p = sub.add_parser("gen-synth", help="generate a synthetic imbalanced dataset")
    gen_p.add_argument("--out", required=True, help="CSV file to write")
    gen_p.add_argument("--n", type=int, default=200, help="total cases (default 200)")
    gen_p.add_argument("--imbalance", type=int, default=9, help="majority per minority case (default 9)")
    gen_p.add_argument("--seed", type=int, default=0)
    return parser


def _run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.seed:
        overrides["seeds"] = args.seed
    for name in ("engine", "approach", "lbss", "ubss", "distance_rule"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.out:
        overrides["output_dir"] = args.out
    if overrides:
        cfg = replace(cfg, **overrides)
    for result in run_experiment(cfg):
        final = result.generations[-1]
        print(
            f"{result.engine} {result.approach} "
            f"lbss={result.config['lbss']} ubss={result.config['ubss']} "
            f"seed={result.seed}: front={final.front_size} "
            f"hv={final.hypervolume:.4f} unique={final.unique_count}"
        )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        if args.command == "summarize":
            print(format_summary(summarize(load_results(args.in_dir))))
            return 0
        write_synthetic_csv(args.out, args.n, args.imbalance, args.seed)
        print(f"wrote {args.out}")
        return 0
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
