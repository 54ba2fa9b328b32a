"""Command-line front end.

Subcommands: validate, metrics, bootstrap, cross-version, cross-project,
analyze, sensitivity, synth. Exit codes: 0 success, 1 usage error, 2 data
error, 3 runtime failure. All randomness is traceable to --seed; identical
configuration and seed reproduce outputs byte for byte.

Option precedence: command-line flags > JSON config file (--config) > defaults.
Config values pass through the same parsing and checks as flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import analysis
from .costmodel import DEFAULT_BOUNDARIES
from .learners import ForestParams
from .metrics import EFFORT_MODES, CoverageError
from .dataset import (
    COUNT_MODES,
    DataError,
    SplitError,
    filter_releases,
    load_corpus,
    load_release_dir,
    write_release,
)
from .extmath import json_number
from .experiments import (
    CROSS_PROJECT_GAP_DAYS,
    OVERSAMPLE_MODES,
    TRANSFER_KINDS,
    BootstrapConfig,
    EvalConfig,
    ForestModel,
    GaussianNBModel,
    RunResult,
    evaluate_external_prediction,
    read_records,
    run_bootstrap,
    run_cross_project,
    run_cross_version,
    write_records_csv,
    write_records_jsonl,
)
from .synth import SynthSpec, generate_synthetic

log = logging.getLogger("defectcost")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract is 1
        raise UsageError(message)


class _Subcommands(argparse._SubParsersAction):
    """Subcommand action that places the --config file's values for the
    chosen subcommand right after it, as if typed there, so that the user's
    own flags, which follow, win. Top-level options precede the subcommand
    and are parsed by now."""

    def __call__(self, parser, namespace, values, option_string=None):
        command, *rest = values
        if namespace.config is not None and command in self.choices:
            settings = _read_config(namespace.config)
            namespace.verbose = namespace.verbose or "--verbose" in _config_tokens(settings, parser)
            rest = _config_tokens(settings, self.choices[command]) + rest
        super().__call__(parser, namespace, [command, *rest], option_string)


def _parse_boundaries(text: str) -> tuple[float, float]:
    try:
        b1, b2 = (float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--boundaries expects 'b1,b2', got {text!r}") from None
    if not (0 < b1 < b2):
        raise UsageError("--boundaries must satisfy 0 < b1 < b2")
    return (b1, b2)


def float_in(low: float, high: float):
    """An option type: the text as a number in [``low``, ``high``]; ValueError
    for any other text, nan included."""
    def number(text: str) -> float:
        if not low <= float(text) <= high:
            raise ValueError(f"{text!r} is not in [{low}, {high}]")
        return float(text)
    return number


probability = float_in(0.0, 1.0)
finite_float = float_in(-sys.float_info.max, sys.float_info.max)


def int_at_least(low: int):
    """An option type: the text as an integer >= ``low``; ValueError for any other text."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise ValueError(f"{text!r} is not >= {low}")
        return int(text)
    return integer


positive_int = int_at_least(1)


def _parse_range(text: str, kind=float):
    try:
        lo, hi = (kind(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"expected 'lo,hi', got {text!r}") from None
    return (lo, hi)


def build_parser() -> _Parser:
    parser = _Parser(prog="defectcost", description=__doc__)
    parser.add_argument("--config", type=Path, help="JSON config file with default option values")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)

    def add_boundaries(p):
        p.add_argument("--boundaries", type=_parse_boundaries, default=DEFAULT_BOUNDARIES,
                       help="potential boundaries 'b1,b2'")

    def add_experiment(name, help_text, oversample):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", type=Path, help="corpus directory")
        p.add_argument("--seed", type=int_at_least(0), default=0)
        p.add_argument("-o", "--out", type=Path, required=True, help="output directory")
        add_boundaries(p)
        p.add_argument("--min-instances", type=positive_int, default=100)
        p.add_argument("--min-defects", type=positive_int, default=5)
        p.add_argument("--count-mode", choices=COUNT_MODES, default="defective_files")
        p.add_argument("--model", choices=("forest", "gnb"), default="forest")
        p.add_argument("--trees", type=positive_int, default=100)
        p.add_argument("--tune", action="store_true", help="tune the forest with differential evolution")
        p.add_argument("--de-population", type=int_at_least(4), default=20, help="DE/rand/1 needs at least 4")
        p.add_argument("--de-generations", type=int_at_least(0), default=30)
        p.add_argument("--oversample", choices=OVERSAMPLE_MODES)
        p.add_argument("--threshold", type=probability, default=0.5)
        p.add_argument("--effort-mode", choices=EFFORT_MODES, default="defects")
        p.set_defaults(oversample=oversample)
        return p

    def add_cross(name, help_text):
        p = add_experiment(name, help_text, "off")
        p.add_argument("--transfer", choices=TRANSFER_KINDS, default="none")
        return p

    p = sub.add_parser("validate", help="load and validate a corpus")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--min-instances", type=positive_int, default=100)
    p.add_argument("--min-defects", type=positive_int, default=5)
    p.add_argument("--count-mode", choices=COUNT_MODES, default="defective_files")

    p = sub.add_parser("metrics", help="evaluate an external prediction for one release")
    p.add_argument("--release", type=Path, required=True, help="release directory")
    p.add_argument("--pred", type=Path, required=True, help="CSV with columns artifact_id,score")
    p.add_argument("--threshold", type=probability, default=0.5)
    add_boundaries(p)
    p.add_argument("--effort-mode", choices=EFFORT_MODES, default="defects")
    p.add_argument("-o", "--out", type=Path, required=True)

    p = add_experiment("bootstrap", "bootstrap experiment over a corpus", "smote")
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--jobs", type=positive_int, default=1)

    add_cross("cross-version", "train on the prior release of each project")
    p = add_cross("cross-project", "train on other projects with temporal filtering")
    p.add_argument("--gap-days", type=int_at_least(0), default=CROSS_PROJECT_GAP_DAYS)

    p = sub.add_parser("analyze", help="relationship models and report bundle from records")
    p.add_argument("--records", type=Path, required=True, help="records.csv or records.jsonl")
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--trees", type=positive_int, default=100)
    p.add_argument("--tune", action="store_true")
    p.add_argument("--corr-threshold", type=probability, default=0.8)
    add_boundaries(p)
    p.add_argument("-o", "--out", type=Path, required=True)

    p = sub.add_parser("sensitivity", help="boundary-shift and diff-regression analysis")
    p.add_argument("--records", type=Path, required=True)
    p.add_argument("--eval-records", type=Path, help="records from another experiment for the regression")
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--trees", type=positive_int, default=100)
    add_boundaries(p)
    p.add_argument("-o", "--out", type=Path, required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--projects", type=int, default=10)
    p.add_argument("--releases", type=int, default=5)
    p.add_argument("--artifacts", default="150,250", help="artifact count range 'lo,hi'")
    p.add_argument("--defect-ratio", default="0.05,0.15", help="defect ratio range 'lo,hi'")
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--signal", type=finite_float, default=1.0)
    p.add_argument("--size-mu", type=finite_float, default=4.0)
    p.add_argument("--size-sigma", type=float_in(0.0, sys.float_info.max), default=1.0)
    p.add_argument("-o", "--out", type=Path, required=True)

    return parser


def _read_config(path: Path) -> dict:
    try:
        values = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config file: {exc}", path) from exc
    if not isinstance(values, dict):
        raise DataError("config file must hold a JSON object", path)
    return values


def _config_tokens(values: dict, parser: argparse.ArgumentParser) -> list[str]:
    """The config values for options of ``parser`` as command-line tokens:
    lists become 'a,b', true a bare flag. Other keys (``config`` among
    them), and null values, are ignored."""
    options = {a.dest: a for a in parser._actions if a.option_strings and a.dest not in ("help", "config")}
    tokens = []
    for key, value in values.items():
        action = options.get(key.replace("-", "_"))
        if action is None or value is None:
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} must be true or false, got {value!r}")
            tokens += [flag] if value else []
        else:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            tokens.append(f"{flag}={text}")
    return tokens


def _load_filtered(args):
    if args.data is None:
        raise UsageError("--data is required (or set 'data' in the config file)")
    releases = load_corpus(args.data)
    kept = filter_releases(releases, args.min_instances, args.min_defects, args.count_mode)
    log.info("loaded %d releases, %d pass the (%d, %d) filter",
             len(releases), len(kept), args.min_instances, args.min_defects)
    return releases, kept


def _scenario_config(args, config_type, **extra):
    """The config of an experiment subcommand: the model from the model
    options, every other field from the option of the same name, if there is
    one, or from ``extra``."""
    if args.model == "forest":
        model = ForestModel(params=ForestParams(n_trees=args.trees), tune=args.tune,
                            tune_population=args.de_population, tune_generations=args.de_generations)
    else:
        model = GaussianNBModel()
    options = {f.name: getattr(args, f.name) for f in fields(config_type) if f.name != "model" and hasattr(args, f.name)}
    return config_type(model=model, **options, **extra)


def _write_outputs(result, outdir: Path) -> None:
    """records.csv, records.jsonl and notices.txt, the last removed when there are no notices."""
    write_records_csv(result.records, outdir / "records.csv")
    write_records_jsonl(result.records, outdir / "records.jsonl")
    notices = outdir / "notices.txt"
    if result.notices:
        notices.write_text("\n".join(result.notices) + "\n")
    else:
        notices.unlink(missing_ok=True)
    log.info("wrote %d records to %s", len(result.records), outdir)


def cmd_validate(args) -> int:
    releases = load_corpus(args.data)
    kept = filter_releases(releases, args.min_instances, args.min_defects, args.count_mode)
    for r in releases:
        print(
            f"{r.key()}: artifacts={r.n_artifacts} defects={len(r.defects)} "
            f"defective_files={r.n_defective} ratio={r.defect_ratio:.3f}"
        )
    print(f"total releases: {len(releases)}")
    print(f"eligible ({args.min_instances}, {args.min_defects}, {args.count_mode}): {len(kept)}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    release = load_release_dir(args.release)
    scores: dict[str, float] = {}
    try:
        with args.pred.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["artifact_id", "score"]:
                raise DataError("prediction header must be 'artifact_id,score'", args.pred, 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise DataError(f"prediction row needs 2 columns, got {len(row)}", args.pred, lineno)
                aid, text = row
                try:
                    score = probability(text)
                except ValueError as exc:
                    raise DataError(f"score must be a finite number in [0, 1], got {text!r}", args.pred, lineno) from exc
                if aid in scores:
                    raise DataError(f"duplicate artifact id {aid!r}", args.pred, lineno)
                scores[aid] = score
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read predictions: {exc}", args.pred) from exc
    try:
        record = evaluate_external_prediction(release, scores, threshold=args.threshold,
                                              boundaries=args.boundaries, effort_mode=args.effort_mode)
    except CoverageError as exc:
        raise DataError(str(exc), args.pred) from exc
    _write_outputs(RunResult([record]), args.out)
    print(f"potential={record.potential.label} lower={record.lower} upper={record.upper} diff={record.diff}")
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    _, kept = _load_filtered(args)
    if not kept:
        raise DataError("no releases pass the eligibility filter")
    config = _scenario_config(args, BootstrapConfig, n_samples=args.samples)
    _write_outputs(run_bootstrap(kept, config, args.jobs), args.out)
    return EXIT_OK


def cmd_cross_version(args) -> int:
    releases, _ = _load_filtered(args)
    _write_outputs(run_cross_version(releases, _scenario_config(args, EvalConfig)), args.out)
    return EXIT_OK


def cmd_cross_project(args) -> int:
    releases, _ = _load_filtered(args)
    _write_outputs(run_cross_project(releases, _scenario_config(args, EvalConfig), args.gap_days), args.out)
    return EXIT_OK


def _read_records_checked(path):
    records = read_records(path)
    if not records:
        raise DataError("records file is empty", path)
    return records


def cmd_analyze(args) -> int:
    records = _read_records_checked(args.records)
    analysis.write_report_bundle(
        args.out,
        records,
        seed=args.seed,
        correlation_threshold=args.corr_threshold,
        forest_params=ForestParams(n_trees=args.trees),
        tune_forest=args.tune,
        boundaries=args.boundaries,
    )
    log.info("report bundle written to %s", args.out)
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    records = _read_records_checked(args.records)
    params = ForestParams(n_trees=args.trees)
    sens = analysis.sensitivity_boundaries(records, seed=args.seed, base=args.boundaries, forest_params=params)
    payload = sens.to_json_dict()
    if args.eval_records:
        eval_records = _read_records_checked(args.eval_records)
        try:
            reg = analysis.sensitivity_regression(records, eval_records, seed=args.seed, forest_params=params)
        except analysis.NoUsableRecords as exc:
            raise DataError(str(exc), args.records if exc.role == "training" else args.eval_records) from exc
        payload["regression"] = {key: json_number(value) for key, value in reg.items()}
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "sensitivity.json").write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    log.info("sensitivity report written to %s", args.out / "sensitivity.json")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_projects=args.projects,
        releases_per_project=args.releases,
        artifacts_range=_parse_range(args.artifacts, int),
        defect_ratio_range=_parse_range(args.defect_ratio, float),
        n_features=args.features,
        signal=args.signal,
        size_log_mean=args.size_mu,
        size_log_sigma=args.size_sigma,
    )
    try:  # validates the spec and every size draw before a file is written
        releases = generate_synthetic(spec, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for release in releases:
        write_release(release, Path(args.out) / release.project / release.release_id)
    log.info("wrote %d releases to %s", len(releases), args.out)
    print(f"generated {len(releases)} releases ({args.projects} projects) in {args.out}")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "metrics": cmd_metrics,
    "bootstrap": cmd_bootstrap,
    "cross-version": cmd_cross_version,
    "cross-project": cmd_cross_project,
    "analyze": cmd_analyze,
    "sensitivity": cmd_sensitivity,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(asctime)s %(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, SplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
