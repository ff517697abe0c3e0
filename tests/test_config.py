"""Stage and run configs: each checks itself when built, is frozen, and
holds the one default of every setting that the CLI and the pipeline read."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from demograph import embed
from demograph.cli import build_parser, main
from demograph.errors import ConfigError
from demograph.labelprop import PropagationConfig
from demograph.model import SplitSpec, TrainHyper
from demograph.pipeline import ExperimentGrid, PipelineConfig
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
        assert lp.splits == cfg.lp_splits == 3
        assert (train.model, train.task) == (cfg.model, cfg.task)


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
