"""Stage and run configs: each checks itself when built, is frozen, and
holds the one default of every setting that the CLI and the pipeline read."""

from __future__ import annotations

import argparse
import math
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest

from demograph import embed
from demograph.cli import _add_fields, build_parser, main
from demograph.errors import ConfigError, ValidationError
from demograph.graph import DirectedEdges
from demograph.labelprop import PropagationConfig
from demograph.lpfeatures import make_partitions
from demograph.model import SplitSpec, TrainHyper
from demograph.pipeline import (_PARSE, _RENAMED, _STAGES, ExperimentGrid,
                                PipelineConfig)
from demograph.synth import PlantedGraphSpec

CONFIGS = [PropagationConfig(), TrainHyper(), SplitSpec(), embed.TrainConfig(),
           PlantedGraphSpec(per_class=1), ExperimentGrid(),
           PipelineConfig.from_settings()]


def built_configs(monkeypatch, argv, *classes) -> list:
    """Every config of ``classes`` that ``demograph argv`` builds."""
    configs = []
    for cls in classes:
        def record(self, check=cls.__post_init__):
            check(self)
            configs.append(self)
        monkeypatch.setattr(cls, "__post_init__", record)
    main(argv)
    return configs


# Each command's flags as the CLI has always named them.
FLAGS = {
    "ingest": "--edges --min-degree --no-symmetrize --out-edges --out-nodes",
    "propagate": "--ages --alpha --beta --classes --emit-inactive --gamma "
                 "--graph --iters --min-degree --out --seeds --strategy",
    "lp-features": "--ages --alpha --classes --graph --iters --min-degree "
                   "--no-presence --out --rng-seed --seeds --splits",
    "sentences": "--bidirectional --edges --out --rng-seed",
    "embed": "--corpus --dim --epochs --min-count --mode --negatives --out "
             "--rate --rng-seed --subsample --window",
    "coldstart": "--embeddings --graph --min-degree --out",
    "synth": "--allow-antihomophily --classes --noise --out-dir --p "
             "--per-class --q --reveal --rng-seed",
    "train": "--ages --balance --epochs --features --hidden --l2 --labels "
             "--metrics-out --minibatch --model --predictions-out --rate "
             "--rng-seed --split --task --train-frac",
    "eval": "--ages --labels --metrics-out --predictions --task",
    "pipeline": "--config --set",
    "sensitivity": "--alphas --betas --edges --gammas --ks --min-degree --out "
                   "--reps --reveal --rng-seed --seeds --strategies --truth "
                   "--workers",
}

# The required flags of each command, with a missing input ("M") and an
# output that must not appear ("OUT").
REQUIRED = {
    "ingest": ["--edges", "M"],
    "propagate": ["--graph", "M", "--seeds", "M", "--out", "OUT"],
    "lp-features": ["--graph", "M", "--seeds", "M", "--out", "OUT"],
    "sentences": ["--edges", "M", "--out", "OUT"],
    "embed": ["--corpus", "M", "--out", "OUT"],
    "coldstart": ["--graph", "M", "--embeddings", "M", "--out", "OUT"],
    "synth": ["--per-class", "3", "--out-dir", "OUT"],
    "train": ["--features", "M", "--labels", "M"],
    "eval": ["--predictions", "M", "--labels", "M"],
    "sensitivity": ["--edges", "M", "--truth", "M", "--reveal", "0.2",
                    "--out", "OUT"],
}

# The config fields that each command takes as flags: every field of the
# class, or the fields listed.
FIELD_FLAGS = [
    ("ingest", PipelineConfig, ("min_degree",)),
    ("propagate", PropagationConfig, ()),
    ("propagate", PipelineConfig, ("ages", "min_degree")),
    ("lp-features", PropagationConfig, ("alpha", "iterations")),
    ("lp-features", PipelineConfig, ("lp_splits", "ages", "min_degree")),
    ("sentences", PipelineConfig, ("emb_bidirectional",)),
    ("coldstart", PipelineConfig, ("min_degree",)),
    ("embed", embed.TrainConfig, ()),
    ("synth", PlantedGraphSpec, ()),
    ("train", TrainHyper, ()),
    ("train", SplitSpec, ("mode", "train_fraction")),
    ("train", PipelineConfig, ("task", "ages", "model", "hidden", "balance")),
    ("eval", PipelineConfig, ("task", "ages")),
    ("sensitivity", ExperimentGrid, ()),
    ("sensitivity", PipelineConfig, ("min_degree",)),
]

# The commands that build a PipelineConfig of their flags; the others read
# its settings from the parsed flags.
BUILDS_RUN = {"train", "eval"}

# A valid value other than the default, as text: by field where a value of
# its type would not do, else by type.
OTHER = {(PropagationConfig, "strategy"): "beta",
         (SplitSpec, "mode"): "random", (embed.TrainConfig, "mode"): "cbow",
         (PipelineConfig, "task"): "age", (PipelineConfig, "model"): "mlp",
         (PlantedGraphSpec, "classes"): "7",
         (ExperimentGrid, "strategies"): "gamma,alpha"}
OTHER_OF_TYPE = {"int": "9", "int | None": "3", "float": "0.04",
                 "float | None": "0.6", "tuple[int, ...]": "2,3",
                 "tuple[float, ...]": "0.25,0.75"}


def other_value(cls, f) -> str:
    return OTHER.get((cls, f.name)) or OTHER_OF_TYPE[f.type]


def rejects(f, text) -> bool:
    """Whether the converter of field ``f`` rejects ``text``."""
    if f.type == "bool":
        return False
    try:
        _PARSE[f.type](text)
    except ValueError:
        return True
    return False


def field_cases(only=lambda f: True):
    return [pytest.param(cmd, cls, f, id=f"{cmd}-{f.name}")
            for cmd, cls, names in FIELD_FLAGS for f in fields(cls)
            if (not names or f.name in names) and only(f)]


def flag_of(cls, f) -> str:
    return "--" + _RENAMED.get((cls, f.name), f.name).replace("_", "-")


def argv_for(tmp_path, cmd, *extra) -> list[str]:
    names = {"M": str(tmp_path / "missing.tsv"), "OUT": str(tmp_path / "o")}
    return [cmd, *(names.get(arg, arg) for arg in REQUIRED[cmd]), *extra]


class TestGeneratedFlags:
    """Every config-backed flag is built from its field."""

    def test_flag_names(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command")
        assert set(commands.choices) == set(FLAGS)
        for cmd, sub in commands.choices.items():
            flags = {o for a in sub._actions for o in a.option_strings} - {
                "-h", "--help", "--version"}
            assert sorted(flags) == FLAGS[cmd].split(), cmd

    @pytest.mark.parametrize("cmd,cls,f", field_cases(
        lambda f: rejects(f, "x")))
    def test_rejected_value_exits_1(self, tmp_path, capsys, cmd, cls, f):
        assert main(argv_for(tmp_path, cmd, flag_of(cls, f), "x")) == 1
        assert f"argument {flag_of(cls, f)}: invalid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cmd,cls,f", field_cases())
    def test_value_reaches_field(self, tmp_path, monkeypatch, cmd, cls, f):
        if f.type == "bool":
            extra, want = [flag_of(cls, f)], True
        else:
            text = other_value(cls, f)
            extra, want = [flag_of(cls, f), text], _PARSE[f.type](text)
        assert want != f.default
        argv = argv_for(tmp_path, cmd, *extra)
        configs = built_configs(monkeypatch, argv, cls)
        if cls is PipelineConfig and cmd not in BUILDS_RUN:
            assert configs == []
            configs = [build_parser().parse_args(argv)]
        assert [getattr(c, f.name) for c in configs] == [want]

    def test_setting_flags_are_built_from_field(self):
        """A flag named as a run setting (``--min-degree``, ``--splits``) is
        the one ``_add_fields`` builds: stored under the field, with its
        default, converter, metavar and help.  The file keys, which default
        to None, are not settings: ``--out`` names a command's own output."""
        def built(f):
            p = argparse.ArgumentParser()
            _add_fields(p, PipelineConfig, f.name)
            return p._actions[-1]

        def spec(a):
            return (type(a), a.option_strings, a.dest, a.default, a.type,
                    a.metavar, a.help, a.required)

        of_flag = {flag_of(PipelineConfig, f): f for f in fields(PipelineConfig)
                   if f.default is not None}
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command")
        seen = set()
        for cmd, sub in commands.choices.items():
            for a in sub._actions:
                for flag in set(a.option_strings) & of_flag.keys():
                    f = of_flag[flag]
                    assert spec(a) == spec(built(f)), (cmd, flag)
                    assert a.help == f.metadata.get("help"), (cmd, flag)
                    seen.add(flag)
        assert {"--min-degree", "--ages", "--splits", "--bidirectional"} <= seen

    @pytest.mark.parametrize("cmd,cls,f", field_cases(
        lambda f: f.default is MISSING))
    def test_field_without_default_is_required(self, capsys, cmd, cls, f):
        assert main([cmd]) == 1
        missing = capsys.readouterr().err.partition("are required: ")[2]
        assert flag_of(cls, f) in missing.splitlines()[0].split(", ")


class TestOneSource:
    """A command run with no optional flag builds the class defaults."""

    @pytest.mark.parametrize("argv,expected", [
        (["propagate", "--graph", "M", "--seeds", "M", "--out", "OUT"],
         [PropagationConfig()]),
        (["lp-features", "--graph", "M", "--seeds", "M", "--out", "OUT"],
         [PropagationConfig()]),
        (["embed", "--corpus", "M", "--out", "OUT"], [embed.TrainConfig()]),
        (["train", "--features", "M", "--labels", "M"],
         [SplitSpec(), TrainHyper()]),
        (["sensitivity", "--edges", "M", "--truth", "M", "--reveal", "0.2",
          "--out", "OUT"], [ExperimentGrid()]),
        (["synth", "--per-class", "3", "--p", "0.5", "--q", "0.1",
          "--out-dir", "OUT"], [PlantedGraphSpec(per_class=3, p=0.5, q=0.1)]),
    ], ids=["propagate", "lp-features", "embed", "train", "sensitivity",
            "synth"])
    def test_cli_defaults(self, tmp_path, monkeypatch, argv, expected):
        names = {"M": str(tmp_path / "missing.tsv"), "OUT": str(tmp_path / "o")}
        argv = [names.get(arg, arg) for arg in argv]
        classes = {type(c) for c in expected}
        assert built_configs(monkeypatch, argv, *classes) == expected

    def test_pipeline_defaults(self):
        cfg = PipelineConfig.from_settings(edges="e.tsv", labels="l.tsv")
        assert (cfg.split_spec, cfg.hyper, cfg.lp, cfg.emb) == \
            (SplitSpec(), TrainHyper(), PropagationConfig(), embed.TrainConfig())

    def test_cli_and_pipeline_share_run_defaults(self):
        parser = build_parser()
        train = parser.parse_args(["train", "--features", "f", "--labels", "l"])
        lp = parser.parse_args(["lp-features", "--graph", "g", "--seeds", "s",
                                "--out", "o"])
        cfg = PipelineConfig.from_settings()
        assert train.hidden == cfg.hidden == (256, 256, 256)
        assert lp.lp_splits == cfg.lp_splits == 3
        assert (train.model, train.task) == (cfg.model, cfg.task)

    @pytest.mark.parametrize("stage,key", [
        (stage, key) for stage, (_, _, keys) in _STAGES.items()
        for key in keys])
    def test_stage_key_and_flag_set_one_field(self, tmp_path, monkeypatch,
                                              stage, key):
        """A stage key is its prefix plus the setting's name, and the
        command's flag is that name with dashes: ``lp_alpha`` is
        ``lp-features --alpha``, ``train_frac`` is ``train --train-frac``."""
        cmd, prefix = {"split_spec": ("train", ""), "hyper": ("train", ""),
                       "lp": ("lp-features", "lp_"),
                       "emb": ("embed", "emb_")}[stage]
        cls, _, keys = _STAGES[stage]
        f = next(f for f in fields(cls) if f.name == keys[key])
        flag = "--" + key.removeprefix(prefix).replace("_", "-")
        default = getattr(PipelineConfig.from_settings(), stage)
        cli_default, = built_configs(monkeypatch, argv_for(tmp_path, cmd), cls)
        assert getattr(cli_default, f.name) == getattr(default, f.name)
        text = other_value(cls, f)
        cli, = built_configs(monkeypatch, argv_for(tmp_path, cmd, flag, text),
                             cls)
        run = getattr(PipelineConfig.from_settings(**{key: text}), stage)
        assert getattr(cli, f.name) == getattr(run, f.name) != f.default


class TestFrozenAndChecked:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
    def test_fields_cannot_be_assigned(self, config):
        with pytest.raises(FrozenInstanceError):
            setattr(config, fields(config)[0].name, None)

    def test_replace_checks_again(self):
        with pytest.raises(ConfigError, match="alpha must lie in"):
            replace(PropagationConfig(), alpha=2)
        with pytest.raises(ConfigError, match="'min_degree' must be >= 0"):
            replace(PipelineConfig.from_settings(), min_degree=-1)

    def test_grid_keeps_tuples(self):
        grid = ExperimentGrid(alphas=[0.3], ks=range(1, 3))
        assert (grid.alphas, grid.ks) == ((0.3,), (1, 2))


class TestSeedsAndNoise:
    @pytest.mark.parametrize("build", [
        lambda: embed.TrainConfig(rng_seed=-1),
        lambda: TrainHyper(rng_seed=-1),
        lambda: SplitSpec(rng_seed=-1),
        lambda: PlantedGraphSpec(per_class=1, rng_seed=-1),
        lambda: make_partitions(range(4), 2, rng_seed=-1),
        lambda: embed.build_sentences(
            DirectedEdges(["a", "b"], np.array([[0, 1]])), -1),
    ], ids=["TrainConfig", "TrainHyper", "SplitSpec", "PlantedGraphSpec",
            "make_partitions", "build_sentences"])
    def test_negative_seed_rejected(self, build):
        with pytest.raises(ValidationError, match="rng_seed must be >= 0, got -1"):
            build()

    def test_seeds_that_are_derived_from_take_any_int(self):
        assert PipelineConfig.from_settings(root_seed=-3).root_seed == -3
        assert ExperimentGrid(rng_seed=-3).rng_seed == -3

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -0.5])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValidationError,
                           match=f"noise must be >= 0 and finite, got {noise}"):
            PlantedGraphSpec(per_class=1, noise=noise)
