"""Conformance suite for the unified ``REPRO_*`` flag parsing.

One contract, every flag: unset/empty means the documented default, a
valid value is normalised, garbage raises ``ValueError`` — never a
silent fallback.  The tables below cover every flag the library reads;
adding a flag without a row here should feel like a missing test.
"""

import logging
import re
from pathlib import Path

import pytest

from repro.utils.envflags import (
    FALSE_VALUES,
    TRUE_VALUES,
    env_bool,
    env_choice,
    env_raw,
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
        monkeypatch.setenv("REPRO_X", "  7 ")
        assert env_raw("REPRO_X") == "7"

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

    def test_env_str_passthrough(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_str("REPRO_X", "fallback") == "fallback"
        monkeypatch.setenv("REPRO_X", " /tmp/p.json ")
        assert env_str("REPRO_X") == "/tmp/p.json"

    def test_env_choice_matches_case_insensitively(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_choice("REPRO_X", ("Low", "High"), "Low") == "Low"
        monkeypatch.setenv("REPRO_X", " hIGH ")
        assert env_choice("REPRO_X", ("Low", "High"), "Low") == "High"

    def test_env_choice_garbage_lists_the_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "mid")
        with pytest.raises(ValueError, match=r"REPRO_X='mid'.*'Low', 'High'"):
            env_choice("REPRO_X", ("Low", "High"), "Low")


# ---------------------------------------------------------------------- #
# Flag inventory: (flag, accessor, default, valid raw, normalised, garbage)
# ---------------------------------------------------------------------- #
def _trace():
    from repro.obs.tracing import tracing_enabled
    return tracing_enabled()


def _log_level():
    from repro.utils.logging import get_logger
    get_logger("envflags-test")
    return logging.getLogger("repro").level


FLAGS = [
    ("REPRO_TRACE", _trace, True, "0", False, "2"),
    ("REPRO_LOG_LEVEL", _log_level, logging.WARNING, "debug",
     logging.DEBUG, "verbose"),
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


class TestLogLevel:
    """``REPRO_LOG_LEVEL`` once fell back to WARNING on unknown names and
    handed format strings straight to ``logging``."""

    @pytest.mark.parametrize("raw", ["verbose", "basic_format",
                                     "%(levelname)s:%(name)s:%(message)s"])
    def test_unknown_level_raises_with_accepted_names(self, monkeypatch,
                                                      raw):
        from repro.utils.logging import LEVELS, get_logger

        monkeypatch.setenv("REPRO_LOG_LEVEL", raw)
        with pytest.raises(ValueError, match="REPRO_LOG_LEVEL") as excinfo:
            get_logger("envflags-test")
        assert all(level in str(excinfo.value) for level in LEVELS)

    def test_debug_enables_debug_records(self, monkeypatch):
        from repro.utils.logging import get_logger

        monkeypatch.setenv("REPRO_LOG_LEVEL", "Debug")
        assert get_logger("envflags-test").isEnabledFor(logging.DEBUG)
        monkeypatch.delenv("REPRO_LOG_LEVEL")
        assert not get_logger("envflags-test").isEnabledFor(logging.INFO)


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
# Inventory: the README's flag table is exactly the flags the library reads
# ---------------------------------------------------------------------- #
_REPO = Path(__file__).resolve().parents[2]


def _flags_read_by_the_library() -> set[str]:
    literal = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
    read = set()
    for path in (_REPO / "src" / "repro").rglob("*.py"):
        read.update(literal.findall(path.read_text()))
    assert read, "no REPRO_* literals found; is the source tree missing?"
    return read


def _flags_in_readme_table() -> set[str]:
    readme = (_REPO / "README.md").read_text()
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", readme,
                          flags=re.MULTILINE))


def test_every_flag_read_by_the_library_is_documented():
    """Each ``"REPRO_*"`` literal under ``src/repro`` has a README row."""
    missing = sorted(_flags_read_by_the_library() - _flags_in_readme_table())
    assert not missing, f"flags read but missing from README's table: {missing}"


def test_every_documented_flag_is_read_by_the_library():
    """Each README flag row names a ``"REPRO_*"`` literal under ``src/repro``."""
    stale = sorted(_flags_in_readme_table() - _flags_read_by_the_library())
    assert not stale, f"README's table documents flags nothing reads: {stale}"
