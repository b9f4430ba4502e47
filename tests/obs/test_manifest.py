"""Run manifests: environment provenance every artifact embeds."""

from __future__ import annotations

import json

from repro.obs.manifest import (
    ARTIFACT_SCHEMA,
    MANIFEST_SCHEMA,
    build_manifest,
    environment_block,
    git_info,
    render_environment,
    run_manifest,
    usable_cores,
)


class TestEnvironmentBlock:
    def test_has_every_provenance_fact(self):
        env = environment_block()
        assert set(env) == {
            "python",
            "implementation",
            "platform",
            "machine",
            "cpu_count",
            "usable_cores",
            "numpy",
        }
        assert env["cpu_count"] >= 1
        assert 1 <= env["usable_cores"] <= env["cpu_count"]

    def test_numpy_version_matches_the_import(self):
        env = environment_block()
        try:
            import numpy
        except Exception:
            assert env["numpy"] is None
        else:
            assert env["numpy"] == numpy.__version__

    def test_usable_cores_positive(self):
        assert usable_cores() >= 1

    def test_json_encodable(self):
        json.dumps(build_manifest())

    def test_names_the_simulation_code(self):
        from repro.parallel.store import sim_code_fingerprint

        manifest = build_manifest()
        assert manifest["sim_code"] == sim_code_fingerprint()
        assert f"sim-code {manifest['sim_code'][:12]}" in (
            render_environment(manifest)
        )


class TestGitInfo:
    def test_describes_this_checkout(self):
        info = git_info()
        # The test suite runs from a git checkout; outside one this
        # degrades to None by design.
        if info is not None:
            assert len(info["sha"]) == 40
            assert isinstance(info["dirty"], bool)

    def test_nonexistent_root_degrades_to_none(self, tmp_path):
        assert git_info(tmp_path / "not-a-repo") is None


class TestRunManifest:
    def test_records_command_and_extras(self):
        payload = run_manifest(
            "repro reproduce --quick", quick=True, jobs=4
        )
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["command"] == "repro reproduce --quick"
        assert payload["quick"] is True
        assert payload["jobs"] == 4
        assert "env" in payload
        assert "created" in payload
        json.dumps(payload)

    def test_schema_tags_are_versioned(self):
        assert ARTIFACT_SCHEMA.endswith("/1")
        assert MANIFEST_SCHEMA.endswith("/1")


class TestRenderEnvironment:
    def test_mentions_interpreter_and_cores(self):
        import platform

        text = render_environment()
        assert platform.python_version() in text
        assert "cpus" in text
        assert "numpy" in text

    def test_absent_numpy_renders_as_absent(self):
        text = render_environment({"env": {"numpy": None}})
        assert "numpy absent" in text

    def test_renders_git_state_when_present(self):
        manifest = {
            "env": {},
            "git": {"sha": "a" * 40, "dirty": True},
        }
        text = render_environment(manifest)
        assert "aaaaaaaaaaaa" in text
        assert "dirty" in text

    def test_tolerates_missing_git(self):
        assert "git" not in render_environment(
            {"env": {}, "git": None}
        )
