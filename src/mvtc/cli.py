"""Command-line interface.

Subcommands: ``run`` (full pipeline on a manifest or synthetic dataset),
``metrics`` (score two label files) and ``gen-synthetic`` (write a
synthetic dataset to disk); ``run --synthetic`` and ``gen-synthetic`` read
one ``--synthetic`` spec.  Exit codes: 0 on success, 2 on validation
errors (a bad command line among them), 3 on numerical failures; errors
print one machine-parsable JSON line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .data import generate_synthetic, load_dataset, load_labels, save_dataset
from .errors import NumericalError, ValidationError
from .metrics import clustering_scores
from .pipeline import DEFAULT_ANCHORS, PRESETS, PipelineConfig, run_pipeline


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    # OSError: a file that cannot be read or written; MemoryError: a request too large to allocate
    except (ValidationError, OSError, MemoryError) as exc:
        _emit_error(exc)
        return 2
    except NumericalError as exc:
        _emit_error(exc)
        return 3


def _emit_error(exc: Exception):
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """A parser (its subparsers too) whose usage errors raise, to exit like any other bad input."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mvtc", description="Scalable multi-view clustering pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)
    spec_help = "inline synthetic spec, e.g. n=500,c=5,v=3,dims=20:30:25,noise=0.1,seed=7 (n and c required)"

    run_p = sub.add_parser("run", help="run the full clustering pipeline")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", help="path to a dataset manifest JSON")
    src.add_argument("--synthetic", metavar="SPEC", help=spec_help)
    run_p.add_argument("--anchors", dest="n_anchors", type=int, default=None, help=f"anchor count M (default min({DEFAULT_ANCHORS}, N))")
    run_p.add_argument("--clusters", dest="n_clusters", type=int, default=None, help="cluster count C")
    run_p.add_argument("--embed-dim", type=int, default=None, help="embedding dimension K (default C)")
    run_p.add_argument("--lambda", dest="lam", type=float, default=None, help="projection ridge weight")
    run_p.add_argument("--beta", type=float, default=None, help="consensus coupling weight")
    run_p.add_argument("--lowfreq", dest="low_freq", type=int, default=None, help="kept low-frequency slices L")
    run_p.add_argument("--iters", dest="max_iters", type=int, default=None, help="solver iterations T")
    run_p.add_argument("--seed", type=int, default=None, help=f"run seed (default {PipelineConfig.seed}); also the --synthetic seed unless its spec sets one")
    run_p.add_argument("--early-stop-tol", type=float, default=None, help="relative consensus-change stop (0 = off)")
    run_p.add_argument("--restarts", type=int, default=None, help="k-means restarts, best inertia wins")
    run_p.add_argument("--kernel-width", type=_parse_kernel_width, default=None, help="RBF width override: one float or one per view, comma-separated")
    run_p.add_argument("--preset", choices=sorted(PRESETS), default=None, help="published hyperparameter preset")
    run_p.add_argument("--no-isc", action="store_true", help="ablation: drop the consensus coupling (beta=0)")
    run_p.add_argument("--no-igs", action="store_true", help="ablation: skip low-frequency smoothing")
    run_p.add_argument("--threads", type=int, default=None, help="numpy's BLAS threads for the run (scipy's run on 1)")
    run_p.add_argument("--out", default=None, help="write the JSON report here")
    run_p.set_defaults(handler=_cmd_run)

    met_p = sub.add_parser("metrics", help="score predicted labels against ground truth")
    met_p.add_argument("--pred", required=True, help="file with one predicted label per line")
    met_p.add_argument("--truth", required=True, help="file with one true label per line")
    met_p.add_argument("--out", default=None, help="write the JSON scores here")
    met_p.set_defaults(handler=_cmd_metrics)

    gen_p = sub.add_parser("gen-synthetic", help="write a synthetic multi-view dataset")
    gen_p.add_argument("--synthetic", metavar="SPEC", required=True, help=spec_help)
    gen_p.add_argument("--format", choices=["csv", "bin"], default="csv")
    gen_p.add_argument("--out", required=True, help="output directory")
    gen_p.set_defaults(handler=_cmd_gen)

    return parser


def _cmd_run(args) -> int:
    settings = dict(PRESETS[args.preset]) if args.preset else {}
    # each run flag's dest that names a config field; an unset flag keeps the preset or default
    names = {f.name for f in fields(PipelineConfig)}
    settings.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    config = PipelineConfig(**settings)  # checked before any data is read
    if args.no_isc:  # the ablation without the consensus coupling
        config = replace(config, beta=0.0)
    if args.manifest:
        dataset = load_dataset(args.manifest)
    else:
        dataset = _synthetic_from_spec(args.synthetic, seed=args.seed)
    return _print_json(run_pipeline(dataset, config).to_json(), args.out)


def _cmd_metrics(args) -> int:
    scores = clustering_scores(load_labels(args.pred), load_labels(args.truth))
    return _print_json(json.dumps(scores, indent=2, sort_keys=True) + "\n", args.out)


def _cmd_gen(args) -> int:
    manifest = save_dataset(_synthetic_from_spec(args.synthetic), args.out, fmt=args.format)
    print(str(manifest))
    return 0


def _print_json(text: str, out) -> int:
    """Print JSON ``text``, and write the same text to ``out`` if set."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


# --synthetic spec keys: the generate_synthetic argument each sets, and its parser
_SPEC_KEYS = {
    "n": ("n_samples", int),
    "c": ("n_clusters", int),
    "v": ("n_views", int),
    "dims": ("dims", lambda raw: [int(tok) for tok in raw.split(":")]),
    "noise": ("noise", float),
    "seed": ("seed", int),
}


def _synthetic_from_spec(spec: str, seed: int | None = None):
    """Parse ``n=500,c=5,v=3,dims=20:30:25,noise=0.1,seed=7`` into a dataset; n and c are required."""
    given = {}
    for token in spec.split(","):
        if not token.strip():
            continue
        if "=" not in token:
            raise ValidationError(f"bad synthetic spec token '{token}' (want key=value)")
        key, value = (part.strip() for part in token.split("=", 1))
        if key not in _SPEC_KEYS:
            raise ValidationError(f"unknown synthetic spec key '{key}' (want one of {', '.join(_SPEC_KEYS)})")
        name, parse = _SPEC_KEYS[key]
        if name in given:
            raise ValidationError(f"synthetic spec key '{key}' is given twice")
        try:
            given[name] = parse(value)
        except ValueError as exc:
            raise ValidationError(f"bad synthetic spec value for '{key}': {exc}") from exc
    if "n_samples" not in given or "n_clusters" not in given:
        raise ValidationError(f"synthetic spec '{spec}' needs both n and c")
    if seed is not None:
        given.setdefault("seed", seed)
    return generate_synthetic(**given)  # unset keys keep generate_synthetic's defaults


def _parse_kernel_width(raw: str) -> float | list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --kernel-width value: {exc}") from exc
    if not values:
        raise ValidationError("--kernel-width needs at least one value")
    return values[0] if len(values) == 1 else values


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
