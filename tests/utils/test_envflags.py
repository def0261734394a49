"""Conformance suite for the unified ``REPRO_*`` flag parsing.

One contract, every flag: unset/empty means the documented default, a
valid value is normalised, garbage raises ``ValueError`` — never a
silent fallback.  The table below is the complete flag inventory; adding
a flag without a row here should feel like a missing test.
"""

import re
from pathlib import Path

import pytest

from repro.utils.envflags import (
    FALSE_VALUES,
    TRUE_VALUES,
    env_bool,
    env_choice,
    env_int,
    env_raw,
    env_set,
    env_str,
)


# ---------------------------------------------------------------------- #
# Parser primitives
# ---------------------------------------------------------------------- #
class TestPrimitives:
    def test_env_raw_strips_and_treats_blank_as_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_raw("REPRO_X") is None
        monkeypatch.setenv("REPRO_X", "   ")
        assert env_raw("REPRO_X") is None
        assert not env_set("REPRO_X")
        monkeypatch.setenv("REPRO_X", "  7 ")
        assert env_raw("REPRO_X") == "7"
        assert env_set("REPRO_X")

    def test_env_int_range_and_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "5")
        assert env_int("REPRO_X", 1, minimum=1, maximum=8) == 5
        monkeypatch.setenv("REPRO_X", "0")
        with pytest.raises(ValueError, match="below the minimum"):
            env_int("REPRO_X", 1, minimum=1)
        monkeypatch.setenv("REPRO_X", "9")
        with pytest.raises(ValueError, match="above the maximum"):
            env_int("REPRO_X", 1, maximum=8)
        monkeypatch.setenv("REPRO_X", "5.5")
        with pytest.raises(ValueError, match="not an integer"):
            env_int("REPRO_X", 1)

    @pytest.mark.parametrize("raw", TRUE_VALUES + tuple(
        v.upper() for v in TRUE_VALUES))
    def test_env_bool_true_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_bool("REPRO_X") is True

    @pytest.mark.parametrize("raw", FALSE_VALUES)
    def test_env_bool_false_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_bool("REPRO_X", default=True) is False

    def test_env_bool_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "2")
        with pytest.raises(ValueError, match="not a boolean"):
            env_bool("REPRO_X")

    def test_env_choice_lowercases_and_rejects(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "GEMM")
        assert env_choice("REPRO_X", ("auto", "gemm"), "auto") == "gemm"
        monkeypatch.setenv("REPRO_X", "blas")
        with pytest.raises(ValueError, match="not a known value"):
            env_choice("REPRO_X", ("auto", "gemm"), "auto")

    def test_env_str_passthrough(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_str("REPRO_X", "fallback") == "fallback"
        monkeypatch.setenv("REPRO_X", " /tmp/p.json ")
        assert env_str("REPRO_X") == "/tmp/p.json"


# ---------------------------------------------------------------------- #
# Flag inventory: (flag, accessor, default, valid raw, normalised, garbage)
# ---------------------------------------------------------------------- #
def _embed_cache():
    from repro.perf.cache import default_capacity
    return default_capacity()


def _serving_batch():
    from repro.serving.config import default_batch_size
    return default_batch_size()


def _serving_workers():
    from repro.serving.config import default_workers
    return default_workers()


def _plan_cache_cap():
    from repro.perf.gemm_conv import plan_cache_cap
    return plan_cache_cap()


def _index_tier():
    from repro.hashindex.tiers import default_index_tier
    return default_index_tier()


def _trace():
    from repro.obs.tracing import tracing_enabled
    return tracing_enabled()


FLAGS = [
    ("REPRO_EMBED_CACHE", _embed_cache, 256, "7", 7, "many"),
    ("REPRO_SERVING_BATCH", _serving_batch, 8, "4", 4, "0"),
    ("REPRO_SERVING_WORKERS", _serving_workers, 1, "3", 3, "0"),
    ("REPRO_PLAN_CACHE_CAP", _plan_cache_cap, 64, "16", 16, "0"),
    ("REPRO_INDEX_TIER", _index_tier, "exact", "HAMMING", "hamming",
     "fancy"),
    ("REPRO_TRACE", _trace, True, "0", False, "2"),
]

_IDS = [row[0] for row in FLAGS]


@pytest.mark.parametrize("flag,accessor,default,raw,normalised,garbage",
                         FLAGS, ids=_IDS)
class TestFlagConformance:
    def test_unset_yields_default(self, monkeypatch, flag, accessor,
                                  default, raw, normalised, garbage):
        monkeypatch.delenv(flag, raising=False)
        assert accessor() == default

    def test_empty_yields_default(self, monkeypatch, flag, accessor,
                                  default, raw, normalised, garbage):
        monkeypatch.setenv(flag, "  ")
        assert accessor() == default

    def test_valid_is_normalised(self, monkeypatch, flag, accessor,
                                 default, raw, normalised, garbage):
        monkeypatch.setenv(flag, raw)
        assert accessor() == normalised

    def test_garbage_raises_naming_the_flag(self, monkeypatch, flag,
                                            accessor, default, raw,
                                            normalised, garbage):
        monkeypatch.setenv(flag, garbage)
        with pytest.raises(ValueError, match=flag):
            accessor()


# ---------------------------------------------------------------------- #
# Flags with non-scalar accessors
# ---------------------------------------------------------------------- #
class TestQaNanguard:
    def test_unset_is_noop(self, monkeypatch):
        from repro.qa.invariants import install_runtime_guards

        monkeypatch.delenv("REPRO_QA_NANGUARD", raising=False)
        assert install_runtime_guards() is False

    def test_garbage_raises(self, monkeypatch):
        from repro.qa.invariants import install_runtime_guards

        monkeypatch.setenv("REPRO_QA_NANGUARD", "2")
        with pytest.raises(ValueError, match="REPRO_QA_NANGUARD"):
            install_runtime_guards()


class TestAttackStrategy:
    def test_unset_is_builtin_default(self, monkeypatch):
        from repro.attacks.registry import DEFAULT_STRATEGY, default_strategy

        monkeypatch.delenv("REPRO_ATTACK", raising=False)
        assert default_strategy() == DEFAULT_STRATEGY

    def test_valid_is_lowercased(self, monkeypatch):
        from repro.attacks.registry import default_strategy, resolve_strategy

        monkeypatch.setenv("REPRO_ATTACK", "TIMI")
        assert default_strategy() == "timi"
        assert resolve_strategy().name == "timi"

    def test_unknown_strategy_raises(self, monkeypatch):
        from repro.attacks.registry import resolve_strategy

        monkeypatch.setenv("REPRO_ATTACK", "nope")
        with pytest.raises(KeyError, match="nope"):
            resolve_strategy()


# ---------------------------------------------------------------------- #
# Path flags: blank means the default, never the working directory
# ---------------------------------------------------------------------- #
def _obs_dir():
    from repro.obs.export import obs_dir
    return obs_dir()


def _fixture_cache_dir():
    from repro.experiments.fixtures import cache_dir
    return cache_dir()


PATH_FLAGS = [
    ("REPRO_OBS_DIR", _obs_dir, Path("results", "obs")),
    ("REPRO_CACHE", _fixture_cache_dir, Path(".repro_cache")),
]


@pytest.mark.parametrize("flag,accessor,default", PATH_FLAGS,
                         ids=[row[0] for row in PATH_FLAGS])
class TestPathFlags:
    @pytest.mark.parametrize("raw", [None, "", "   "],
                             ids=["unset", "empty", "blank"])
    def test_unset_or_blank_yields_default(self, monkeypatch, tmp_path,
                                           flag, accessor, default, raw):
        monkeypatch.chdir(tmp_path)  # cache_dir() creates the directory
        if raw is None:
            monkeypatch.delenv(flag, raising=False)
        else:
            monkeypatch.setenv(flag, raw)
        assert accessor() == default

    def test_value_is_stripped_path(self, monkeypatch, tmp_path, flag,
                                    accessor, default):
        monkeypatch.setenv(flag, f" {tmp_path / 'custom'} ")
        assert accessor() == tmp_path / "custom"


# ---------------------------------------------------------------------- #
# Inventory: every flag the library reads is documented
# ---------------------------------------------------------------------- #
_REPO = Path(__file__).resolve().parents[2]


def test_every_flag_read_by_the_library_is_documented():
    """Each ``"REPRO_*"`` literal under ``src/repro`` has a README row."""
    literal = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
    read = set()
    for path in (_REPO / "src" / "repro").rglob("*.py"):
        read.update(literal.findall(path.read_text()))
    readme = (_REPO / "README.md").read_text()
    documented = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", readme,
                                flags=re.MULTILINE))
    assert read, "no REPRO_* literals found; is the source tree missing?"
    missing = sorted(read - documented)
    assert not missing, f"flags read but missing from README's table: {missing}"
