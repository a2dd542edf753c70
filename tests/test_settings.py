"""The REPRO_* settings table (repro.sim.settings).

One declaration per knob, one parsing policy, and a result-cache key
that no setting moves once a config is built.
"""

import os
import re

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core.config import baseline
from repro.sim import settings
from repro.sim.cache import ResultCache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUMERIC = [s.name for s in settings.SETTINGS if s.type in (int, float)]


def _other_start_method():
    return "spawn" if settings.get("REPRO_MP_START", {}) != "spawn" else "fork"


#: A valid, non-default value for every declared setting.
EXAMPLES = {
    "REPRO_WORKLOADS": "5",
    "REPRO_LENGTH": "1234",
    "REPRO_WARMUP": "99",
    "REPRO_FF": "0",
    "REPRO_CACHE_DIR": "elsewhere-cache",
    "REPRO_CHECKPOINT_DIR": "elsewhere-checkpoints",
    "REPRO_BATCH_WARM": "1",
    "REPRO_BATCH_WIDTH": "4",
    "REPRO_JOBS": str((os.cpu_count() or 1) + 1),
    "REPRO_MP_START": _other_start_method(),
    "REPRO_PROGRESS": "1",
    "REPRO_JOB_TIMEOUT": "12",
    "REPRO_JOB_RETRIES": "5",
    "REPRO_DRAIN_TIMEOUT": "5",
    "REPRO_CHECK_INVARIANTS": "64",
    "REPRO_FAULT": "crash:job=99",
}


class TestPolicy:
    def test_examples_cover_the_registry_and_are_not_defaults(self):
        assert set(EXAMPLES) == set(settings.REGISTRY)
        for name, text in EXAMPLES.items():
            assert settings.get(name, {name: text}) != settings.get(name, {})

    def test_unset_and_empty_mean_default(self):
        for setting in settings.SETTINGS:
            default = setting.default_value()
            assert settings.get(setting.name, {}) == default
            assert settings.get(setting.name, {setting.name: ""}) == default

    @pytest.mark.parametrize("name", NUMERIC)
    def test_numeric_knob_names_malformed_value_and_clamps(self, name,
                                                          monkeypatch):
        setting = settings.REGISTRY[name]
        assert setting.lower is not None, "numeric settings declare a bound"
        monkeypatch.setenv(name, "abc")
        with pytest.raises(ValueError, match="%s=.*abc" % name):
            settings.get(name)
        monkeypatch.setenv(name, str(setting.lower - 5))
        assert settings.get(name) == setting.lower
        monkeypatch.setenv(name, str(setting.lower))
        assert settings.get(name) == setting.lower

    def test_malformed_timeout_raises(self, monkeypatch):
        from repro.sim.parallel import resolve_job_timeout

        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "abc")
        with pytest.raises(ValueError, match="REPRO_JOB_TIMEOUT"):
            resolve_job_timeout(None, 40000)

    def test_flags(self):
        flags = [s.name for s in settings.SETTINGS if s.type is bool]
        for name in flags:
            for text in ("1", "on", "TRUE", "yes"):
                assert settings.get(name, {name: text}) is True
            for text in ("0", "off", "false", "No"):
                assert settings.get(name, {name: text}) is False
            with pytest.raises(ValueError, match=name):
                settings.get(name, {name: "maybe"})

    def test_undeclared_name_is_an_error(self):
        with pytest.raises(KeyError):
            settings.get("REPRO_NO_SUCH_KNOB")


class TestFingerprint:
    @hyp_settings(max_examples=25, deadline=None)
    @given(st.sets(st.sampled_from(sorted(EXAMPLES)), min_size=1))
    def test_no_setting_moves_the_key_of_a_built_config(self, names):
        """A result depends on the config alone: once a config is built,
        no declared setting moves its result-cache key."""
        cache = ResultCache("unused")
        config = baseline()
        key = cache.key("spec06_mcf", config, 1000, 500)
        environ = {name: EXAMPLES[name] for name in names}
        saved = {name: os.environ.get(name) for name in names}
        os.environ.update(environ)
        try:
            assert cache.key("spec06_mcf", config, 1000, 500) == key
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


class TestDeclaredOnce:
    def test_readme_table_matches_registry(self):
        with open(os.path.join(ROOT, "README.md")) as handle:
            text = handle.read()
        rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", text, re.MULTILINE)
        assert len(rows) == len(set(rows))
        assert set(rows) == set(settings.REGISTRY)

    def test_every_literal_under_src_is_declared(self):
        found = set()
        for base, _dirs, files in os.walk(os.path.join(ROOT, "src", "repro")):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(base, name)) as handle:
                        found.update(re.findall(r"REPRO_[A-Z_]+",
                                                handle.read()))
        assert found <= set(settings.REGISTRY), sorted(
            found - set(settings.REGISTRY))

    def test_every_name_set_in_ci_is_declared(self):
        """A CI step that sets an undeclared REPRO_* name (a deleted
        setting, a typo) is silently ignored by the program, so the
        workflows may only set declared ones: YAML ``env:`` keys and
        ``NAME=`` assignments in their scripts.  ``REPRO_EQUIV_ARTIFACTS``
        is read by the equivalence tests, not the program."""
        allowed = set(settings.REGISTRY) | {"REPRO_EQUIV_ARTIFACTS"}
        workflows = os.path.join(ROOT, ".github", "workflows")
        found = set()
        for name in sorted(os.listdir(workflows)):
            if name.endswith(".yml"):
                with open(os.path.join(workflows, name)) as handle:
                    text = handle.read()
                found.update(re.findall(r"^\s*(REPRO_[A-Z_]+):", text,
                                        re.MULTILINE))
                found.update(re.findall(r"\b(REPRO_[A-Z_]+)=", text))
        assert "REPRO_CACHE_DIR" in found  # the patterns still match
        assert found <= allowed, sorted(found - allowed)
