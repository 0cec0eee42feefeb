"""Command line front end.

Subcommands:
  synth      generate a synthetic representation set (CSV + schema JSON)
  metrics    score a representation set (alignment, SNC, NK, MIG, SAP, DCI)
  align      importance matrix + alignment, with Hinton diagram exports
  cg         held-out-combination generalization runs
  correlate  Pearson r between metric scores and generalization scores
  report     re-render a previously written JSON payload as a text table

Exit codes: 0 success, 1 validation/usage error, 2 I/O error, 3 training diverged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, cgtask, metrics, synth
from .align import (
    ALIGN_MODES,
    Alignment,
    GREEDY,
    INJECTIVE,
    export_hinton,
    greedy_alignment,
    hinton_text,
    injective_alignment,
)
from .classify import LINEAR, MLP, TrainConfig
from .dataset import (
    DEFAULT_BINS,
    FactorSchema,
    load_representation_set,
    write_representation_set,
)
from .errors import DataIOError, TrainingDivergedError, ValidationError
from .infotheory import ImportanceMatrix, importance_matrix
from .util import atomic_write_json, atomic_write_text, payload_kind


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises on bad flags instead of exiting, so cli() owns exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _load_rep(data: str, schema: str | None):
    """Resolve --data (directory or CSV) plus optional --schema to a set."""
    data_path = Path(data)
    if data_path.is_dir():
        csv_path = data_path / "data.csv"
        schema_path = Path(schema) if schema else data_path / "schema.json"
    else:
        csv_path = data_path
        schema_path = Path(schema) if schema else data_path.parent / "schema.json"
    return load_representation_set(csv_path, schema_path)


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataIOError(f"{path} is not valid UTF-8: {exc}") from exc
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise DataIOError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataIOError(f"{path}: expected a JSON object at top level")
    return payload


def _items(text: str, sep: str = ",") -> list[str]:
    """The items of a sep-separated list flag, stripped, empty ones dropped."""
    return [item.strip() for item in text.split(sep) if item.strip()]


def _parse_factor_list(text: str) -> FactorSchema:
    """Parse 'name:K,name:K,...' into a schema."""
    names, cards = [], []
    for token in _items(text):
        if ":" not in token:
            raise ValidationError(f"factor token {token!r} must look like name:cardinality")
        name, _, card = token.partition(":")
        try:
            cards.append(int(card))
        except ValueError:
            raise ValidationError(f"factor {name!r}: cardinality {card!r} is not an integer")
        names.append(name.strip())
    if not names:
        raise ValidationError("--factors must name at least one factor")
    return FactorSchema(tuple(names), tuple(cards))


def _parse_pairs(text: str) -> list[tuple]:
    """Parse 'a:va,b:vb;a:va,b:vb' into (factor, value, factor, value) tuples;
    each factor token is resolved later by FactorSchema.index_of."""
    pairs = []
    for chunk in _items(text, ";"):
        sides = chunk.split(",")
        if len(sides) != 2:
            raise ValidationError(
                f"pair {chunk!r} must be two comma-separated factor:value terms"
            )
        parsed = []
        for side in sides:
            if ":" not in side:
                raise ValidationError(f"term {side!r} must look like factor:value")
            factor, _, value = side.partition(":")
            try:
                parsed.extend([factor.strip(), int(value)])
            except ValueError:
                raise ValidationError(f"term {side!r}: value {value!r} is not an integer")
        pairs.append(tuple(parsed))
    if not pairs:
        raise ValidationError("--pairs must name at least one excluded pair")
    return pairs


def _train_config(args) -> TrainConfig:
    return TrainConfig(seed=args.seed, epochs=args.epochs, learning_rate=args.learning_rate)


def _parse_subset(text: str | None) -> list[str] | None:
    if text is None:
        return None
    names = _items(text)
    if not names:
        raise ValidationError("--subset must name at least one factor")
    return names


def build_parser() -> _Parser:
    parser = _Parser(prog="detangle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="directory with data.csv + schema.json, or a CSV file")
        p.add_argument("--schema", help="schema JSON path (defaults next to the data)")

    def add_train_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                       help="probe training epochs (default %(default)s)")
        p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate,
                       help="probe Adam step size (default %(default)s)")

    p = sub.add_parser("synth", help="generate a synthetic representation set",
                       description="Generate a synthetic representation set.")
    p.add_argument("--kind", required=True, choices=synth.GENERATOR_KINDS)
    p.add_argument("--factors", help="schema as name:K,name:K (kinds with a fixed schema ignore this)")
    p.add_argument("--copies", type=int, default=1, help="samples per factor combination")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="exact", action="store_true", default=True,
                      help="exact base population (default)")
    mode.add_argument("--sampled", dest="exact", action="store_false",
                      help="sample stochastic cells instead of exact multiplicities")
    p.add_argument("--sigma", type=float, default=0.0, help="gaussian noise level")
    p.add_argument("--angle", type=float, help="rotation angle in radians (rotated kind)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory for data.csv + schema.json")

    p = sub.add_parser("metrics", help="score a representation set",
                       description="Score a representation set and write a JSON report.")
    add_data_flags(p)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--align", choices=ALIGN_MODES, default=INJECTIVE)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS, help="bins for MI estimation")
    add_train_flags(p)
    p.add_argument("--subset", help="factor names (comma-separated) to aggregate over")
    p.add_argument("--aggregate", choices=metrics.AGGREGATE_MODES, default=metrics.PRODUCT)

    p = sub.add_parser("align", help="importance matrix and alignment diagrams",
                       description="Importance matrix, alignment, Hinton diagrams.")
    add_data_flags(p)
    p.add_argument("--out", help="write alignment JSON here")
    p.add_argument("--align", choices=ALIGN_MODES, default=INJECTIVE)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--svg", help="write an SVG Hinton diagram here")
    p.add_argument("--text", help="write a text Hinton diagram here")

    p = sub.add_parser("cg", help="held-out-combination generalization runs",
                       description="Held-out-combination generalization runs.")
    p.add_argument("--data", help="single set: split internally by exclusion")
    p.add_argument("--schema")
    p.add_argument("--train-data", help="externally encoded train set (use with --test-data)")
    p.add_argument("--test-data", help="externally encoded held-out set")
    p.add_argument("--pairs", required=True, help="excluded combinations, a:va,b:vb;...")
    p.add_argument("--probe", choices=(LINEAR, MLP, "both"), default=MLP)
    add_train_flags(p)
    p.add_argument("--no-control", action="store_true", help="skip the random-split control")
    p.add_argument("--out", help="write the JSON results here")

    p = sub.add_parser("correlate", help="correlate metric scores with generalization",
                       description="Correlate metric scores with generalization scores.")
    p.add_argument("--metrics", required=True, help="comma-separated metric report JSON paths")
    p.add_argument("--cg", required=True, help="comma-separated generalization JSON paths")
    p.add_argument("--subset", required=True, help="factor names the scores aggregate over")
    p.add_argument("--columns", default=",".join(metrics.PER_FACTOR_METRICS),
                   help="metric columns to correlate")
    p.add_argument("--aggregate", choices=metrics.AGGREGATE_MODES, default=metrics.PRODUCT)
    p.add_argument("--baseline-aggregate", choices=analysis.BASELINE_AGGREGATES,
                   default=analysis.MEAN_ALL)
    p.add_argument("--out", help="write the correlation JSON here")

    p = sub.add_parser("report", help="re-render a stored JSON payload",
                       description="Render a stored JSON payload as a text table.")
    p.add_argument("--in", dest="input", required=True, help="payload JSON path")
    p.add_argument("--out", help="write the rendered text here instead of stdout only")

    return parser


def _cmd_synth(args) -> str:
    schema = _parse_factor_list(args.factors) if args.factors else None
    spec = synth.GeneratorSpec(
        kind=args.kind,
        schema=schema,
        samples_per_cell=args.copies,
        exact_population=args.exact,
        noise_sigma=args.sigma,
        angle=args.angle,
        seed=args.seed,
    )
    rep = synth.generate(spec)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot create {out_dir}: {exc}") from exc
    write_representation_set(rep, out_dir / "data.csv", out_dir / "schema.json")
    return (
        f"wrote {rep.n_rows} rows ({rep.n_neurons} neurons, "
        f"{rep.schema.n_factors} factors) to {out_dir}\n"
    )


def _metrics_payload(args) -> dict:
    rep = _load_rep(args.data, args.schema)
    return metrics.compute_metric_report(
        rep,
        align_mode=args.align,
        n_bins=args.bins,
        config=_train_config(args),
        subset=_parse_subset(args.subset),
        aggregate_mode=args.aggregate,
    )


def _align_payload(args) -> dict:
    rep = _load_rep(args.data, args.schema)
    imp = importance_matrix(rep, n_bins=args.bins)
    alignment = greedy_alignment(imp) if args.align == GREEDY else injective_alignment(imp)
    export_hinton(imp, alignment, svg_path=args.svg, text_path=args.text)
    return {
        "schema_version": 1,
        "importance": imp.to_json_dict(),
        "alignment": alignment.to_json_dict(),
    }


def _cg_payload(args) -> dict:
    config = _train_config(args)
    kinds = (LINEAR, MLP) if args.probe == "both" else (args.probe,)
    pairs = _parse_pairs(args.pairs)
    if args.train_data or args.test_data:
        if not (args.train_data and args.test_data):
            raise ValidationError("external mode needs both --train-data and --test-data")
        if args.data:
            raise ValidationError("--data conflicts with --train-data/--test-data")
        if len(pairs) != 1:
            raise ValidationError("external mode evaluates exactly one excluded pair")
        train_rep = _load_rep(args.train_data, args.schema)
        test_rep = _load_rep(args.test_data, args.schema)
        runs = [
            cgtask.run_cg_presplit(train_rep, test_rep, pairs[0], kind, config) for kind in kinds
        ]
        return cgtask.cg_payload(runs, kinds)
    if not args.data:
        raise ValidationError("cg needs --data, or --train-data with --test-data")
    rep = _load_rep(args.data, args.schema)
    control = not args.no_control
    if len(pairs) == 1 and len(kinds) == 1:
        return cgtask.run_cg(rep, pairs[0], kinds[0], config, control=control)
    return cgtask.run_cg_suite(rep, pairs, kinds, config, control=control)


def _correlate_payload(args) -> dict:
    return analysis.correlate_metrics_with_cg(
        [_read_payload(p)[0] for p in _items(args.metrics)],
        [_read_payload(p)[0] for p in _items(args.cg)],
        subset=_parse_subset(args.subset),
        metrics=_items(args.columns),
        aggregate_mode=args.aggregate,
        baseline_aggregate=args.baseline_aggregate,
    )


def render(payload: dict) -> str:
    """The text a command prints for its payload, for every payload kind."""
    kind = payload_kind(payload)
    if kind == "metrics":
        return metrics.render_metric_table(payload)
    if kind in ("cg_run", "cg_suite"):
        return cgtask.render_cg_table(payload)
    if kind == "correlation":
        return analysis.render_correlation_table(payload)
    imp_block = payload["importance"]
    imp = ImportanceMatrix(
        values=imp_block["bits"],
        factor_names=tuple(imp_block["factor_names"]),
        n_bins=imp_block["n_bins"],
        strategy=imp_block["strategy"],
    )
    align_block = payload.get("alignment")
    alignment = None
    if align_block:
        alignment = Alignment(
            assignment=tuple(align_block["assignment"]),
            mode=align_block["mode"],
            objective_value=float(align_block["objective_bits"]),
            degenerate=bool(align_block["degenerate"]),
        )
    return hinton_text(imp, alignment)


def _read_payload(path: str) -> tuple[dict, str]:
    """A stored payload and its rendered text. A payload of no known kind,
    or one missing or mistyping a key its renderer reads, is a
    ValidationError naming path."""
    payload = _read_json(path)
    try:
        return payload, render(payload)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(
            f"{path}: incomplete or malformed {payload_kind(payload)} payload "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _cmd_report(args) -> str:
    text = _read_payload(args.input)[1]
    if args.out:
        atomic_write_text(args.out, text)
    return text


# Commands that print text of their own.
_TEXT_HANDLERS = {"synth": _cmd_synth, "report": _cmd_report}
# Commands that build a payload: written to --out as JSON, printed rendered.
_PAYLOAD_HANDLERS = {
    "metrics": _metrics_payload,
    "align": _align_payload,
    "cg": _cg_payload,
    "correlate": _correlate_payload,
}


def _run(args) -> str:
    """Run one subcommand; returns the text it prints."""
    if args.command in _TEXT_HANDLERS:
        return _TEXT_HANDLERS[args.command](args)
    payload = _PAYLOAD_HANDLERS[args.command](args)
    if args.out:
        atomic_write_json(args.out, payload)
    return render(payload)


def cli(argv=None) -> int:
    """Parse argv and run one subcommand. Returns the process exit code."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        print(_run(args), end="")
        return 0
    except (DataIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
