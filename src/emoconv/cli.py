"""Command-line entry points.

Subcommands:

    preprocess  raw TSVs -> statistics table; sentence-vector TSV -> binary
    finetune    word vectors + binary-sentiment corpus -> fine-tuned vectors
    train       raw TSVs -> run directory: checkpoint, history TSV, run.json
    evaluate    checkpoint + labeled split -> metrics report
    sweep       single-axis sensitivity runs -> report; a run directory per cell

Global flags (before the subcommand): --seed overrides the config seed,
--config points at a key=value config file, --out directs the command's
report (a file for evaluate/sweep, the run directory for train).  Reports
default to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from . import finetune as ft
from . import metrics, rcnn
from . import sweep as sw
from . import train as tr
from .config import TrainConfig, load_config
from .dataio import (LABELS, atomic_write, load_checkpoint, load_dataset,
                     load_sentence_vectors, load_word_vectors, save_sentence_vectors,
                     save_word_vectors)
from .textprep import SPECIALS, TokenSequence, build_vocab, token_rows

log = logging.getLogger(__name__)

SENTENCE_VECTORS_HELP = "the converted file (preprocess --sentence-vectors TSV OUT), or 'none'"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoconv",
        description="Emotion classification for three-turn conversations.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="report destination (file; a directory for train)")
    parser.add_argument("--config", default=None, help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="statistics of raw dataset TSVs")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--sentence-vectors", nargs=2, metavar=("TSV", "OUT"),
                   help="convert a sentence-vector TSV to the binary file OUT")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("finetune", help="fine-tune word vectors on a binary corpus")
    p.add_argument("--corpus", required=True, help="TSV with header text<TAB>label")
    p.add_argument("--embeddings-in", required=True)
    p.add_argument("--embeddings-out", required=True,
                   help="the corpus vocabulary's tuned vectors, then the input's other "
                        "vectors as they were")
    schedule = ft.FinetuneSchedule()
    p.add_argument("--epochs-frozen", type=int, default=schedule.frozen_epochs)
    p.add_argument("--epochs-unfrozen", type=int, default=schedule.unfrozen_epochs)
    p.add_argument("--lr", type=float, default=schedule.lr)
    p.add_argument("--batch-size", type=int, default=schedule.batch_size)
    p.add_argument("--dim", type=int, default=schedule.dim)
    p.add_argument("--filters", type=int, default=schedule.filters_per_size)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("train", help="train the classifier on dataset TSVs")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--embeddings", default=None,
                   help="pretrained word vectors (text format); random if absent")
    p.add_argument("--sentence-vectors", required=True, help=SENTENCE_VECTORS_HELP)
    p.add_argument("--select", choices=("best", "last"), default="best")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True, help="labeled dataset TSV")
    p.add_argument("--sentence-vectors", default="none", help=SENTENCE_VECTORS_HELP)
    p.add_argument("--score-others", action="store_true",
                   help="include the 'others' class in micro-F1")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="single-axis hyperparameter sensitivity runs")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated values for the axis")
    p.add_argument("--seeds", default=",".join(map(str, sw.DEFAULT_SEEDS)),
                   help="comma-separated run seeds")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--sentence-vectors", required=True, help=SENTENCE_VECTORS_HELP)
    p.add_argument("--runs-dir", default="sweep_runs",
                   help="one run directory per cell, for resumable sweeps")
    p.set_defaults(func=cmd_sweep)
    return parser


def _load_base_config(args) -> TrainConfig:
    config = load_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        config = config.replace(seed=args.seed)
    return config


def _emit(args, text: str) -> None:
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
        log.info("report written to %s", args.out)
    else:
        sys.stdout.write(text)


def _load_store(path: str, dim: int, ids):
    """The converted store of ``path`` (None for ``none``) with the rows of ``ids`` only."""
    return None if path == "none" else load_sentence_vectors(path, dim, set(ids))


def _read_inputs(args, config: TrainConfig):
    """The one input step of ``train`` and ``sweep``: the config, with
    ``sentence_dim`` 0 for ``--sentence-vectors none``, and the run's
    :class:`train.RunData`: the :meth:`~train.RunData.encode` of ``--train``
    and ``--val`` (the splits go once encoded), the store of its examples'
    sentence vectors and the ``--embeddings`` vectors its vocabulary holds."""
    data = tr.RunData.encode(load_dataset(args.train, "train"), load_dataset(args.val, "val"))
    store = _load_store(args.sentence_vectors, config.sentence_dim,
                        (ex.id for ex in data.train_ex + data.val_ex))
    if store is None:
        config = config.replace(sentence_dim=0)
    pretrained = (load_word_vectors(args.embeddings, config.embedding_dim,
                                    keep=data.vocab.token_to_id) if args.embeddings else {})
    return config, dataclasses.replace(data, store=store, pretrained=pretrained)


def cmd_preprocess(args) -> int:
    # rows over the length filter count in the tokens per turn, so the
    # report keeps its own rows rather than a run's encoding
    splits = [load_dataset(args.train, "train"), load_dataset(args.val, "val")]
    splits += [load_dataset(args.test, "test")] if args.test else []
    rows_by_split = [list(tr.split_rows(split)) for split in splits]
    vocab = build_vocab(map(TokenSequence, rows_by_split[0]))
    lines = ["split\ttotal\t" + "\t".join(LABELS) +
             "\tavg_tokens_per_utterance\tencoded"]
    for split, rows in zip(splits, rows_by_split):
        encoded = tr.encode_split(split, vocab, rows)
        counts = [str(split.label_counts.get(name, 0)) for name in LABELS]
        # tokens per turn: a row is three turns and two EOS tokens
        per_turn = sum(len(row) - 2 for row in rows) / (3 * len(rows)) if rows else 0.0
        lines.append(f"{split.name}\t{len(split)}\t" + "\t".join(counts) +
                     f"\t{per_turn:.2f}\t{len(encoded)}")
    lines.append(f"vocab_size\t{vocab.size}")
    if args.sentence_vectors:
        tsv, out = args.sentence_vectors
        save_sentence_vectors(load_sentence_vectors(tsv, _load_base_config(args).sentence_dim), out)
        log.info("sentence vectors of %s written to %s", tsv, out)
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_finetune(args) -> int:
    seed = _load_base_config(args).seed
    schedule = ft.FinetuneSchedule(args.epochs_frozen, args.epochs_unfrozen, args.lr,
                                   args.batch_size, args.dim, args.filters)
    if os.path.exists(args.embeddings_in) and not os.path.isfile(args.embeddings_in):
        raise ValueError(f"{args.embeddings_in}: not a regular file; it is read again, "
                         "after tuning, for the vectors the corpus lacks")
    corpus = ft.load_finetune_corpus(args.corpus)
    rows = list(token_rows((text for text, _ in corpus), 1))
    vocab = build_vocab(map(TokenSequence, rows))
    encoded = ft.encode_corpus(corpus, vocab, rows)
    del rows  # only the ids stay through training
    pretrained = load_word_vectors(args.embeddings_in, schedule.dim, keep=vocab.token_to_id)
    model, losses = ft.run(schedule, seed, encoded, vocab, pretrained)
    reserved = len(SPECIALS)
    save_word_vectors(vocab.id_to_token[reserved:], model.emb.table.values[reserved:],
                      args.embeddings_out, args.embeddings_in)
    _emit(args, "epoch\tloss\n" +
          "".join(f"{i + 1}\t{loss!r}\n" for i, loss in enumerate(losses)))
    return 0


def cmd_train(args) -> int:
    config, data = _read_inputs(args, _load_base_config(args))
    history = tr.run_into(args.out or ".", config, data, args.select)
    sys.stdout.write(tr.format_history(history))
    return 0


def cmd_evaluate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    params = rcnn.restore(ckpt.config, ckpt.params)
    split = load_dataset(args.split, "test")
    examples = tr.encode_split(split, ckpt.vocab)
    store = _load_store(args.sentence_vectors, ckpt.config.sentence_dim,
                        (ex.id for ex in examples))
    scored = LABELS if args.score_others else metrics.SCORED_CLASSES
    cm, _ = tr.evaluate(params, examples, store, ckpt.config.batch_size)
    _emit(args, metrics.format_report(cm, scored))
    return 0


def cmd_sweep(args) -> int:
    config = _load_base_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --values {args.values!r} / --seeds "
                         f"{args.seeds!r} as numbers") from None
    spec = sw.SweepSpec(args.axis, values, seeds)  # checked before any file is read
    config, data = _read_inputs(args, config)
    _, aggregates = sw.run_sweep(spec, config, data, args.runs_dir)
    _emit(args, sw.format_sweep_report(aggregates))
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # every failure is a nonzero exit with a message
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
