"""Command-line interface: ``python -m repro <command>``.

Commands cover the full pipeline a downstream user needs:

- ``simulate``   — generate a synthetic city and save it;
- ``featurize``  — build train/test ExampleSets from a saved city;
- ``train``      — train a DeepSD variant and save its weights, with
  fault-tolerant checkpoint/resume
  (``--checkpoint-dir/--checkpoint-every/--resume``);
- ``evaluate``   — score saved model weights on a saved ExampleSet;
- ``experiment`` — run one of the paper's table/figure experiments,
  optionally fanning its model training across processes (``--workers``);
- ``bench``      — measure hot-path throughput and write the canonical
  ``BENCH_perf.json`` perf-trajectory file (see ``docs/performance.md``);
- ``serve``      — run the online gap-prediction HTTP service from a
  checkpoint bundle; ``--workers N`` scales it out to a supervised
  sharded fleet behind a front router (see ``docs/serving.md``);
- ``loadtest``   — drive concurrent mixed predict/observe load at a
  serving endpoint (or a self-hosted fleet) and record
  ``serving.fleet.*`` latency/throughput into ``BENCH_perf.json``;
- ``info``       — describe a saved city or ExampleSet;
- ``report``     — summarize one or more run manifests;
- ``trace``      — summarize an exported Chrome-trace file (per-span-name
  count / total / p50 / p95 / p99 / %-of-parent table).

Every command accepts the observability group
(``--log-level/--log-format/--log-file``, ``--quiet/--verbose``,
``--no-metrics``, ``--trace/--trace-file``, ``--manifest``) and writes a
``RunManifest`` JSON next to its primary artifact — see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import get_scale
from .eval import evaluate as evaluate_metrics
from .eval import format_table
from .obs import (
    LEVELS,
    RunManifest,
    configure_logging,
    configure_metrics,
    configure_tracing,
    get_logger,
    get_registry,
    get_tracer,
    load_chrome_trace,
    summarize_spans,
)

_log = get_logger(__name__)


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability options, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level", default=None, choices=sorted(LEVELS),
        help="structured log threshold (default: info)",
    )
    group.add_argument(
        "--log-format", default="kv", choices=["kv", "json"],
        help="kv (key=value lines) or json (JSON-lines)",
    )
    group.add_argument(
        "--log-file", default=None,
        help="write logs to this file instead of stderr",
    )
    group.add_argument(
        "--quiet", action="store_true",
        help="only warnings and errors (shorthand for --log-level warning)",
    )
    group.add_argument(
        "--verbose", action="store_true",
        help="debug-level events (shorthand for --log-level debug)",
    )
    group.add_argument(
        "--no-metrics", action="store_true",
        help="disable the in-process metrics registry",
    )
    group.add_argument(
        "--trace", action="store_true",
        help="record spans for this run (off by default; near-zero cost "
             "when off)",
    )
    group.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="export recorded spans to PATH as Chrome trace_event JSON "
             "(implies --trace; open in chrome://tracing or Perfetto)",
    )
    group.add_argument(
        "--manifest", default=None,
        help="run-manifest path (default: <primary output>.manifest.json)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepSD (ICDE 2017) reproduction pipeline",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    obs = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", parents=[obs], help="generate a synthetic city"
    )
    simulate.add_argument("--scale", default="bench", help="paper | bench | tiny")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out", required=True, help="output .npz path")

    featurize = sub.add_parser(
        "featurize", parents=[obs], help="build train/test ExampleSets"
    )
    featurize.add_argument("--scale", default="bench")
    featurize.add_argument("--city", required=True, help="city .npz from `simulate`")
    featurize.add_argument("--train-out", required=True)
    featurize.add_argument("--test-out", required=True)

    train = sub.add_parser("train", parents=[obs], help="train a DeepSD model")
    train.add_argument("--model", default="advanced", choices=["basic", "advanced"])
    train.add_argument("--scale", default="bench")
    train.add_argument("--train", dest="train_set", required=True)
    train.add_argument("--test", dest="test_set", default=None)
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--dropout", type=float, default=0.1)
    train.add_argument("--seed", type=int, default=1)
    train.add_argument("--save", default=None, help="save trained weights (.npz)")
    train.add_argument(
        "--quantiles", action="store_true",
        help="fit a P10/P50/P90 residual quantile head after training and "
             "attach it to the final checkpoint (needs --checkpoint-dir); "
             "serving then returns risk intervals alongside the point gap",
    )
    train.add_argument(
        "--no-tape", action="store_true",
        help="disable the execution tape (taped training is bitwise-"
             "identical to module dispatch; this forces the slower path)",
    )
    ckpt = train.add_argument_group("checkpointing")
    ckpt.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write resumable training checkpoints into DIR",
    )
    ckpt.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint every N epochs (default 1; needs --checkpoint-dir)",
    )
    ckpt.add_argument(
        "--resume", nargs="?", const="auto", default=None, metavar="PATH",
        help="resume from a checkpoint dir/file (bare --resume uses "
             "--checkpoint-dir)",
    )
    ckpt.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help="stop after N epochs, leaving a checkpoint behind "
             "(fault-injection testing)",
    )

    evaluate = sub.add_parser(
        "evaluate", parents=[obs], help="score saved weights on an ExampleSet"
    )
    evaluate.add_argument("--model", default="advanced", choices=["basic", "advanced"])
    evaluate.add_argument("--scale", default="bench")
    evaluate.add_argument("--weights", required=True)
    evaluate.add_argument("--test", dest="test_set", required=True)
    evaluate.add_argument("--train", dest="train_set", required=True,
                          help="training set (for the input scales)")
    evaluate.add_argument("--dropout", type=float, default=0.1)

    experiment = sub.add_parser(
        "experiment", parents=[obs], help="run a paper experiment"
    )
    experiment.add_argument(
        "name",
        choices=[
            "table1", "table2", "table3", "table4", "table5",
            "fig1", "fig10", "fig11", "fig12", "fig13", "fig15", "fig16",
        ],
    )
    experiment.add_argument("--scale", default="bench")
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan the experiment's model/baseline training across N worker "
             "processes (results are bitwise-identical to --workers 1; "
             "see docs/performance.md)",
    )

    scenarios = sub.add_parser(
        "scenarios", parents=[obs],
        help="robustness matrix: every model × every scenario pack",
    )
    scenarios.add_argument("--scale", default="tiny", help="paper | bench | tiny")
    scenarios.add_argument("--seed", type=int, default=None)
    scenarios.add_argument(
        "--models", default="basic,advanced,average", metavar="SPEC",
        help="comma-separated NN variants and/or baselines, or 'all' "
             "(default: basic,advanced,average)",
    )
    scenarios.add_argument(
        "--packs", default="all", metavar="SPEC",
        help="comma-separated scenario names and/or inline pack stacks "
             "(name[:key=value...][+name...]); 'all' runs every default "
             "scenario; steady is always included (default: all)",
    )
    scenarios.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="train the models across N worker processes (the report is "
             "bitwise-identical for any N)",
    )
    scenarios.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the robustness report JSON to PATH",
    )

    bench = sub.add_parser(
        "bench", parents=[obs],
        help="measure hot-path throughput and write BENCH_perf.json",
    )
    bench.add_argument("--scale", default="tiny", help="paper | bench | tiny")
    bench.add_argument(
        "--out", default=None, metavar="PATH",
        help=f"output JSON path (default {('BENCH_perf.json')!s})",
    )
    bench.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker count for the serial-vs-parallel experiment section",
    )
    bench.add_argument(
        "--epochs", type=int, default=2, metavar="N",
        help="training epochs timed in the train-epoch section",
    )
    bench.add_argument(
        "--experiment", default="table2",
        help="multi-model experiment used for the wall-clock comparison",
    )
    bench.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed BENCH_perf.json to gate against; exits 1 if any "
             "throughput regressed more than 2x (skipped when PATH is "
             "missing)",
    )

    serve = sub.add_parser(
        "serve", parents=[obs],
        help="run the online gap-prediction HTTP service",
    )
    serve.add_argument("--city", required=True, help="city .npz from `simulate`")
    serve.add_argument(
        "--checkpoint", required=True,
        help="checkpoint dir or ckpt-*.json from `train --checkpoint-dir`",
    )
    serve.add_argument("--scale", default="bench", help="paper | bench | tiny")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32, metavar="B",
        help="largest micro-batch folded into one forward pass",
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="LRU prediction-cache capacity",
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
        help="prediction-cache time-to-live (default: no expiry)",
    )
    serve.add_argument(
        "--no-tape", action="store_true",
        help="serve through module dispatch instead of the execution "
             "tape (responses are bitwise-identical either way)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes; >1 runs a sharded fleet behind a router",
    )
    serve.add_argument(
        "--shard-by", default="area-slot", choices=["area-slot", "area"],
        help="fleet query partitioning (default: hash of area and timeslot)",
    )
    serve.add_argument(
        "--watch-checkpoint", type=float, default=0.0, metavar="SECONDS",
        help="poll the checkpoint dir at this cadence and hot-swap new "
             "bundles (0 disables)",
    )
    serve.add_argument(
        "--fleet-run-dir", default=None, metavar="DIR",
        help="fleet worker logs/manifests directory (default: temp dir)",
    )

    loadtest = sub.add_parser(
        "loadtest", parents=[obs],
        help="drive concurrent mixed predict/observe load at a serving "
             "endpoint and record serving.fleet.* bench metrics",
    )
    loadtest.add_argument(
        "--url", default=None,
        help="serving endpoint (http://host:port); omit to self-host a "
             "fleet from --city/--checkpoint for the duration of the run",
    )
    loadtest.add_argument("--city", default=None, help="city .npz (self-host)")
    loadtest.add_argument(
        "--checkpoint", default=None, help="checkpoint bundle (self-host)"
    )
    loadtest.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="self-hosted fleet size (default 2)",
    )
    loadtest.add_argument(
        "--shard-by", default="area-slot", choices=["area-slot", "area"],
    )
    loadtest.add_argument("--scale", default="tiny", help="paper | bench | tiny")
    loadtest.add_argument(
        "--requests", type=int, default=2000, metavar="N",
        help="total requests to issue",
    )
    loadtest.add_argument(
        "--concurrency", type=int, default=8, metavar="N",
        help="concurrent client threads",
    )
    loadtest.add_argument(
        "--observe-fraction", type=float, default=0.2, metavar="F",
        help="fraction of requests that are observations (default 0.2)",
    )
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="merge results into this bench trajectory "
             "(default: BENCH_perf.json; use --no-bench to skip)",
    )
    loadtest.add_argument(
        "--no-bench", action="store_true",
        help="print results only; do not touch the bench trajectory",
    )
    loadtest.add_argument(
        "--bench-prefix", default="serving.fleet", metavar="PREFIX",
        help="metric-name prefix for the recorded keys",
    )
    loadtest.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help="also run a batched leg folding predictions into "
             "/predict_batch requests of up to N items, recorded under "
             "PREFIX.batch.*, plus a bitwise batch-vs-single cross-check "
             "recorded as serving.batch.identical",
    )

    info = sub.add_parser("info", parents=[obs], help="describe a saved artifact")
    info.add_argument("path")
    info.add_argument("--kind", choices=["city", "examples"], default="city")

    report = sub.add_parser(
        "report", parents=[obs], help="summarize one or more run manifests"
    )
    report.add_argument("manifests", nargs="+", help="*.manifest.json paths")

    trace = sub.add_parser(
        "trace", parents=[obs],
        help="summarize an exported Chrome-trace file",
    )
    trace.add_argument("path", help="trace JSON written via --trace-file")
    trace.add_argument(
        "--sort", default="total_ms",
        choices=["total_ms", "count", "p50_ms", "p95_ms", "p99_ms", "name"],
        help="summary table ordering (default: total time, descending)",
    )

    return parser


def _configure_observability(args) -> None:
    """Apply the obs option group once per invocation."""
    if args.log_level:
        level = args.log_level
    elif args.verbose:
        level = "debug"
    elif args.quiet:
        level = "warning"
    else:
        level = "info"
    configure_logging(level=level, fmt=args.log_format, file=args.log_file)
    if args.no_metrics:
        configure_metrics(enabled=False)
    if args.trace or args.trace_file:
        configure_tracing(enabled=True)


def _write_manifest(manifest: RunManifest, args, artifact: Optional[str]) -> None:
    """Persist the manifest next to ``artifact`` (or at ``--manifest``)."""
    if args.manifest:
        path = manifest.write(args.manifest)
    elif artifact:
        path = manifest.write(artifact=artifact)
    else:
        return
    _log.event("manifest.written", level=logging.DEBUG,
               path=path, command=manifest.command)


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .city import simulate_city
    from .config import with_seed

    scale = get_scale(args.scale)
    if args.seed is not None:
        scale = with_seed(scale, args.seed)
    manifest = RunManifest.begin(
        "simulate",
        config={"scale": scale.name, "out": args.out},
        seed=scale.simulation.seed,
    )
    with manifest.stage("simulate"):
        dataset = simulate_city(scale.simulation)
    with manifest.stage("save"):
        dataset.save(args.out)
    summary = dataset.summary()
    manifest.record(
        **{k: v for k, v in summary.items() if isinstance(v, (int, float))}
    )
    manifest.artifacts["city"] = args.out
    _write_manifest(manifest, args, args.out)
    print(f"wrote {args.out}")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    return 0


def cmd_featurize(args) -> int:
    from .city import CityDataset
    from .features import FeatureBuilder

    scale = get_scale(args.scale)
    manifest = RunManifest.begin(
        "featurize",
        config={"scale": scale.name, "city": args.city},
        seed=scale.simulation.seed,
    )
    with manifest.stage("load_city"):
        dataset = CityDataset.load(args.city)
    with manifest.stage("build"):
        train_set, test_set = FeatureBuilder(dataset, scale.features).build()
    with manifest.stage("save"):
        train_set.save(args.train_out)
        test_set.save(args.test_out)
    manifest.record(train_items=train_set.n_items, test_items=test_set.n_items)
    manifest.artifacts.update(train=args.train_out, test=args.test_out)
    _write_manifest(manifest, args, args.train_out)
    print(f"wrote {args.train_out} ({train_set.n_items} items)")
    print(f"wrote {args.test_out} ({test_set.n_items} items)")
    return 0


def _build_model(name: str, scale, n_areas: int, dropout: float, seed: int):
    from .core import AdvancedDeepSD, BasicDeepSD

    cls = AdvancedDeepSD if name == "advanced" else BasicDeepSD
    return cls(
        n_areas,
        scale.features.window_minutes,
        scale.embeddings,
        dropout=dropout,
        seed=seed,
    )


def cmd_train(args) -> int:
    from .core import Trainer, TrainingConfig
    from .exceptions import ConfigError
    from .features import ExampleSet
    from .nn import save_weights

    scale = get_scale(args.scale)
    epochs = args.epochs or (50 if scale.name != "tiny" else 6)
    resume_from = args.resume
    if resume_from == "auto":
        if not args.checkpoint_dir:
            raise ConfigError("--resume without a path requires --checkpoint-dir")
        resume_from = args.checkpoint_dir
    manifest = RunManifest.begin(
        "train",
        config={
            "scale": scale.name,
            "model": args.model,
            "epochs": epochs,
            "dropout": args.dropout,
            "train": args.train_set,
            "test": args.test_set,
            "checkpoint_dir": args.checkpoint_dir,
            "checkpoint_every": args.checkpoint_every,
            "resume": resume_from,
        },
        seed=args.seed,
    )
    with manifest.stage("load"):
        train_set = ExampleSet.load(args.train_set)
        test_set = ExampleSet.load(args.test_set) if args.test_set else None

    model = _build_model(args.model, scale, train_set.n_areas, args.dropout, args.seed)
    trainer = Trainer(
        model,
        TrainingConfig(epochs=epochs, best_k=min(10, epochs), seed=args.seed),
        use_tape=False if args.no_tape else None,
    )
    with manifest.stage("fit"):
        history = trainer.fit(
            train_set,
            eval_set=test_set,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume_from=resume_from,
            stop_after_epoch=args.stop_after,
        )
    manifest.record(epochs=history.n_epochs, final_train_loss=history.train_loss[-1])
    if trainer.resumed_from:
        manifest.mark_resumed(trainer.resumed_from, trainer.resumed_epoch)
        print(f"resumed from {trainer.resumed_from} (epoch {trainer.resumed_epoch})")
    if args.checkpoint_dir:
        manifest.artifacts["checkpoint_dir"] = args.checkpoint_dir
    if trainer.last_checkpoint:
        manifest.artifacts["checkpoint"] = trainer.last_checkpoint
    print(f"trained {args.model} for {history.n_epochs} of {epochs} epochs")
    if history.n_epochs < epochs:
        print(
            f"  stopped early after epoch {history.n_epochs}; resume with "
            f"`repro train --checkpoint-dir {args.checkpoint_dir} --resume ...`"
        )
    if history.eval_rmse:
        manifest.record(best_epoch_rmse=min(history.eval_rmse))
        print(f"  best epoch RMSE: {min(history.eval_rmse):.3f}")
    if test_set is not None:
        with manifest.stage("evaluate"):
            report = evaluate_metrics(
                trainer.predict(test_set), test_set.gaps.astype(np.float64)
            )
        manifest.record(mae=report.mae, rmse=report.rmse)
        print(f"  ensembled test MAE {report.mae:.3f}  RMSE {report.rmse:.3f}")
    if args.quantiles:
        from .core import attach_quantile_head, fit_quantile_head

        with manifest.stage("quantiles"):
            head = fit_quantile_head(trainer, train_set)
            if trainer.last_checkpoint:
                attach_quantile_head(trainer.last_checkpoint, head)
                print(f"attached quantile head to {trainer.last_checkpoint}")
            else:
                print(
                    "warning: --quantiles without --checkpoint-dir fits the "
                    "head but has no checkpoint to attach it to"
                )
        manifest.record(quantile_levels=len(head.levels))
    if args.save:
        with manifest.stage("save"):
            save_weights(model, args.save)
        manifest.artifacts["weights"] = args.save
        print(f"wrote {args.save}")
    _write_manifest(manifest, args, args.save)
    return 0


def cmd_evaluate(args) -> int:
    from .core import InputScales, Trainer
    from .features import ExampleSet
    from .nn import load_weights

    scale = get_scale(args.scale)
    manifest = RunManifest.begin(
        "evaluate",
        config={
            "scale": scale.name,
            "model": args.model,
            "weights": args.weights,
            "test": args.test_set,
        },
        seed=scale.simulation.seed,
    )
    with manifest.stage("load"):
        train_set = ExampleSet.load(args.train_set)
        test_set = ExampleSet.load(args.test_set)
        model = _build_model(args.model, scale, test_set.n_areas, args.dropout, seed=0)
        load_weights(model, args.weights)
        model.input_scales = InputScales.from_example_set(train_set)
    with manifest.stage("predict"):
        predictions = Trainer(model).predict(test_set)
    report = evaluate_metrics(predictions, test_set.gaps.astype(np.float64))
    manifest.record(mae=report.mae, rmse=report.rmse, items=report.n_items)
    # The weights' own manifest is `<weights>.manifest.json` (written by
    # `train --save`); evaluation runs get a distinct default suffix.
    _write_manifest(manifest, args, f"{args.weights}.eval")
    print(
        format_table(
            ["Model", "MAE", "RMSE", "items"],
            [[args.model, report.mae, report.rmse, report.n_items]],
            title=f"Evaluation of {args.weights}",
        )
    )
    return 0


def cmd_experiment(args) -> int:
    from . import experiments
    from .experiments import get_context, runner

    context = get_context(args.scale, args.seed)
    manifest = RunManifest.begin(
        "experiment",
        config={
            "name": args.name,
            "scale": context.scale.name,
            "workers": args.workers,
        },
        seed=context.scale.simulation.seed,
    )
    if args.workers > 1:
        # Fan the heavy per-model work across worker processes first; the
        # serial runner below then finds everything in the shared cache.
        with manifest.stage("parallel_prepare"):
            report = runner.run_tasks(
                context, runner.tasks_for(args.name), workers=args.workers
            )
        manifest.record(**report.to_metrics())
        for task in report.results:
            manifest.add_stage(f"task:{task.task_id}", task.seconds)
    module = getattr(experiments, args.name)
    with manifest.stage(args.name):
        result = module.run(context)
    if args.manifest:
        _write_manifest(manifest, args, None)
    print(_render_experiment(args.name, result))
    return 0


def cmd_scenarios(args) -> int:
    from .scenarios import render_report, run_matrix, save_report

    manifest = RunManifest.begin(
        "scenarios",
        config={
            "scale": args.scale,
            "models": args.models,
            "packs": args.packs,
            "workers": args.workers,
            "out": args.out,
        },
        seed=args.seed,
    )
    with manifest.stage("matrix"):
        report, runner_report = run_matrix(
            scale_name=args.scale,
            seed=args.seed,
            models=args.models,
            packs=args.packs,
            workers=args.workers,
        )
    manifest.record(
        scenarios=len(report["scenarios"]),
        models=len(report["models"]),
        results=len(report["results"]),
        **runner_report.to_metrics(),
    )
    if args.out:
        with manifest.stage("save"):
            save_report(report, args.out)
        manifest.artifacts["report"] = args.out
        print(f"wrote {args.out}")
    _write_manifest(manifest, args, args.out)
    print(render_report(report))
    return 0


def cmd_bench(args) -> int:
    from .bench import (
        DEFAULT_BENCH_PATH,
        find_regressions,
        load_bench,
        run_bench,
        write_bench,
    )

    out = args.out or DEFAULT_BENCH_PATH
    manifest = RunManifest.begin(
        "bench",
        config={
            "scale": args.scale,
            "workers": args.workers,
            "epochs": args.epochs,
            "experiment": args.experiment,
            "out": out,
        },
    )
    with manifest.stage("bench"):
        payload = run_bench(
            args.scale,
            workers=args.workers,
            epochs=args.epochs,
            experiment=args.experiment,
        )
    path = write_bench(payload, out)
    manifest.record(**payload["metrics"])
    manifest.artifacts["bench"] = path
    _write_manifest(manifest, args, path)
    print(f"wrote {path}")
    for name in sorted(payload["metrics"]):
        print(f"  {name}: {payload['metrics'][name]:.3f}")

    if args.baseline:
        if not os.path.exists(args.baseline):
            print(f"baseline {args.baseline} missing; regression check skipped")
            return 0
        regressions = find_regressions(payload, load_bench(args.baseline))
        if regressions:
            for finding in regressions:
                print(f"PERF REGRESSION: {finding}", file=sys.stderr)
            return 1
        print(f"no >2x throughput regressions vs {args.baseline}")
    return 0


def cmd_serve(args) -> int:
    from .city import CityDataset
    from .serving import (
        CheckpointWatcher,
        PredictionService,
        ServingConfig,
        build_server,
        serve_forever,
    )

    if args.workers > 1:
        return _serve_fleet(args)

    scale = get_scale(args.scale)
    manifest = RunManifest.begin(
        "serve",
        config={
            "scale": scale.name,
            "city": args.city,
            "checkpoint": args.checkpoint,
            "max_batch": args.max_batch,
            "cache_size": args.cache_size,
            "cache_ttl": args.cache_ttl,
        },
    )
    with manifest.stage("load_city"):
        dataset = CityDataset.load(args.city)
    with manifest.stage("load_checkpoint"):
        service = PredictionService.from_checkpoint(
            args.checkpoint,
            dataset,
            scale.features,
            serving_config=ServingConfig(
                max_batch=args.max_batch,
                cache_size=args.cache_size,
                cache_ttl_seconds=args.cache_ttl,
                use_tape=False if args.no_tape else None,
            ),
        )
    watcher = None
    if args.watch_checkpoint > 0:
        watch_dir = (
            args.checkpoint if os.path.isdir(args.checkpoint)
            else os.path.dirname(args.checkpoint) or "."
        )
        watcher = CheckpointWatcher(
            service, watch_dir, interval_seconds=args.watch_checkpoint
        ).start()
    server = build_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    manifest.record(port=port)
    manifest.artifacts["checkpoint"] = args.checkpoint
    print(f"serving {service.version} on http://{host}:{port}", flush=True)
    _log.event("serving.started", host=host, port=port, version=service.version)
    with manifest.stage("serve"):
        try:
            serve_forever(server, service)
        except KeyboardInterrupt:
            server.server_close()
            service.close()
        finally:
            if watcher is not None:
                watcher.stop()
    stats = service.stats()
    registry = get_registry()
    requests = registry.counters.get("repro.serving.requests", 0)
    manifest.record(
        requests=requests,
        cache_hits=stats["cache"]["hits"],
        cache_misses=stats["cache"]["misses"],
    )
    _write_manifest(manifest, args, f"{args.checkpoint.rstrip('/')}.serve")
    print(
        f"served {int(requests)} requests "
        f"({stats['cache']['hits']} cache hits); shut down cleanly"
    )
    return 0


def _serve_fleet(args) -> int:
    """``repro serve --workers N``: supervised sharded fleet + router."""
    from .serving import FleetConfig, FleetSupervisor, build_router

    scale = get_scale(args.scale)
    config = FleetConfig(
        city=args.city,
        checkpoint=args.checkpoint,
        scale=scale.name,
        workers=args.workers,
        shard_by=args.shard_by,
        host=args.host,
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        use_tape=not args.no_tape,
        watch_interval=args.watch_checkpoint,
        run_dir=args.fleet_run_dir,
    )
    manifest = RunManifest.begin(
        "serve",
        config={
            "scale": scale.name,
            "city": args.city,
            "checkpoint": args.checkpoint,
            "workers": args.workers,
            "shard_by": args.shard_by,
        },
    )
    fleet = FleetSupervisor(config)
    with manifest.stage("start_fleet"):
        fleet.start()
    server = build_router(fleet, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    manifest.record(port=port, run_dir=fleet.run_dir)
    manifest.artifacts["checkpoint"] = args.checkpoint
    # Keep the port after the last colon: tooling (smoke.sh) parses it
    # from this banner exactly as in the single-process case.
    print(
        f"serving {fleet.label} on http://{host}:{port}", flush=True
    )
    _log.event(
        "fleet.router_started", host=host, port=port, workers=args.workers
    )
    with manifest.stage("serve"):
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            fleet.shutdown()
    registry = get_registry()
    requests = registry.counters.get("repro.fleet.router.requests", 0)
    manifest.record(requests=requests, respawns=fleet.respawns)
    _write_manifest(manifest, args, f"{args.checkpoint.rstrip('/')}.fleet")
    print(
        f"served {int(requests)} routed requests across {args.workers} "
        f"workers ({fleet.respawns} respawns); shut down cleanly"
    )
    return 0


def cmd_loadtest(args) -> int:
    from .bench import DEFAULT_BENCH_PATH
    from .serving import (
        FleetConfig,
        FleetSupervisor,
        build_router,
        merge_bench,
        run_loadtest,
        verify_batch_identical,
    )

    scale = get_scale(args.scale)
    manifest = RunManifest.begin(
        "loadtest",
        config={
            "scale": scale.name,
            "url": args.url,
            "requests": args.requests,
            "concurrency": args.concurrency,
            "observe_fraction": args.observe_fraction,
            "seed": args.seed,
            "batch": args.batch,
        },
    )
    fleet = None
    server = None
    server_thread = None
    if args.url:
        url = args.url
    else:
        if not (args.city and args.checkpoint):
            print(
                "loadtest needs --url, or --city and --checkpoint to "
                "self-host a fleet",
                file=sys.stderr,
            )
            return 2
        with manifest.stage("start_fleet"):
            fleet = FleetSupervisor(
                FleetConfig(
                    city=args.city,
                    checkpoint=args.checkpoint,
                    scale=scale.name,
                    workers=args.workers,
                    shard_by=args.shard_by,
                )
            ).start()
            server = build_router(fleet)
            host, port = server.server_address[:2]
            import threading as _threading

            server_thread = _threading.Thread(
                target=server.serve_forever, daemon=True
            )
            server_thread.start()
            url = f"http://{host}:{port}"
            print(f"self-hosted fleet of {args.workers} workers at {url}")
    metrics = {}
    batch_result = None
    try:
        # Single-item leg first: the PREFIX.* keys (and the p99 the
        # regression gate watches) always describe unbatched transport.
        with manifest.stage("loadtest"):
            result = run_loadtest(
                url,
                scale,
                n_requests=args.requests,
                concurrency=args.concurrency,
                observe_fraction=args.observe_fraction,
                seed=args.seed,
            )
        metrics.update(result.metrics(args.bench_prefix))
        if args.batch > 1:
            with manifest.stage("loadtest_batch"):
                batch_result = run_loadtest(
                    url,
                    scale,
                    n_requests=args.requests,
                    concurrency=args.concurrency,
                    observe_fraction=args.observe_fraction,
                    seed=args.seed + 1,
                    batch=args.batch,
                )
            metrics.update(batch_result.metrics(f"{args.bench_prefix}.batch"))
            with manifest.stage("verify_batch"):
                metrics.update(
                    verify_batch_identical(url, scale, seed=args.seed + 2)
                )
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
            server_thread.join(timeout=10.0)
        if fleet is not None:
            fleet.shutdown()
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.4f}")
    # Full keys (dots to underscores): the batch leg repeats every
    # per-leg suffix, so bare suffixes would collide in the manifest.
    manifest.record(**{k.replace(".", "_"): v for k, v in metrics.items()})
    if not args.no_bench:
        bench_path = args.bench_out or DEFAULT_BENCH_PATH
        merge_bench(metrics, bench_path, scale_name=scale.name)
        print(f"merged {len(metrics)} keys into {bench_path}")
        manifest.artifacts["bench"] = bench_path
    _write_manifest(manifest, args, "loadtest")
    errors = result.errors + (batch_result.errors if batch_result else 0)
    if errors:
        print(f"loadtest FAILED: {errors} errored requests", file=sys.stderr)
        return 1
    if args.batch > 1 and metrics.get("serving.batch.identical") != 1.0:
        print(
            "loadtest FAILED: /predict_batch results not identical to "
            "per-item /predict",
            file=sys.stderr,
        )
        return 1
    return 0


def _render_experiment(name: str, result) -> str:
    """Minimal textual rendering per experiment family."""
    if name.startswith("table") and isinstance(result, list):
        fields = [f for f in vars(result[0])]
        rows = [[getattr(row, f) for f in fields] for row in result]
        return format_table(fields, rows, title=name)
    if isinstance(result, dict):
        lines = [name]
        for key, value in result.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)
    return f"{name}:\n{result}"


def cmd_info(args) -> int:
    if args.kind == "city":
        from .city import CityDataset

        dataset = CityDataset.load(args.path)
        for key, value in dataset.summary().items():
            print(f"{key}: {value}")
    else:
        from .features import ExampleSet

        example_set = ExampleSet.load(args.path)
        print(f"items: {example_set.n_items}")
        print(f"window: {example_set.window}")
        print(f"areas: {example_set.n_areas}")
        print(f"gap mean: {example_set.gaps.mean():.3f}")
        print(f"gap zero fraction: {(example_set.gaps == 0).mean():.3f}")
    return 0


def cmd_report(args) -> int:
    """Render stage timings and final metrics from saved manifests."""
    manifests = [RunManifest.load(path) for path in args.manifests]
    for manifest in manifests:
        print(
            f"{manifest.command}: version={manifest.version} "
            f"seed={manifest.seed} created={manifest.created_at}"
        )
        if manifest.resume:
            print(
                f"  resumed from {manifest.resume.get('from')} "
                f"at epoch {manifest.resume.get('epoch')}"
            )
    print()

    timing_rows = []
    for manifest in manifests:
        for stage in manifest.stages:
            timing_rows.append([manifest.command, stage["name"], stage["seconds"]])
        timing_rows.append([manifest.command, "total", manifest.total_seconds])
    print(
        format_table(
            ["run", "stage", "seconds"],
            timing_rows,
            title="Stage timings",
            float_format="{:.3f}",
        )
    )

    metric_rows = [
        [manifest.command, name, value]
        for manifest in manifests
        for name, value in sorted(manifest.metrics.items())
    ]
    if metric_rows:
        print()
        print(
            format_table(
                ["run", "metric", "value"],
                metric_rows,
                title="Final metrics",
                float_format="{:.4f}",
            )
        )
    return 0


def cmd_trace(args) -> int:
    """Aggregate an exported trace into a per-span-name latency table."""
    spans = load_chrome_trace(args.path)
    if not spans:
        print(f"{args.path}: no spans recorded")
        return 0
    rows = summarize_spans(spans)
    reverse = args.sort != "name"
    rows.sort(key=lambda row: (row[args.sort] is None, row[args.sort]),
              reverse=reverse)
    table = [
        [
            row["name"],
            row["count"],
            row["total_ms"],
            row["p50_ms"],
            row["p95_ms"],
            row["p99_ms"],
            "-" if row["pct_of_parent"] is None
            else f"{row['pct_of_parent']:.1f}",
        ]
        for row in rows
    ]
    print(
        format_table(
            ["span", "count", "total_ms", "p50_ms", "p95_ms", "p99_ms",
             "% of parent"],
            table,
            title=f"Trace summary: {args.path} ({len(spans)} spans)",
            float_format="{:.3f}",
        )
    )
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "experiment": cmd_experiment,
    "scenarios": cmd_scenarios,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "loadtest": cmd_loadtest,
    "info": cmd_info,
    "report": cmd_report,
    "trace": cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_observability(args)
    try:
        return _COMMANDS[args.command](args)
    finally:
        if getattr(args, "trace_file", None):
            tracer = get_tracer()
            tracer.export(args.trace_file)
            _log.event(
                "trace.exported", path=args.trace_file,
                spans=len(tracer), dropped=tracer.dropped,
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
