"""Checkpoint bundle round-trips, dtype policy, and legacy migration."""

import json

import numpy as np
import pytest

from repro.core import SAGDFN, SAGDFNConfig
from repro.data.scalers import StandardScaler
from repro.serve import ForecastService
from repro.tensor import Tensor, default_dtype
from repro.utils import (
    load_bundle,
    load_checkpoint,
    save_bundle,
    save_checkpoint,
)
from repro.utils.checkpoint import BUNDLE_VERSION


def _tiny_config(**overrides):
    defaults = dict(num_nodes=8, input_dim=2, history=4, horizon=3, embedding_dim=6,
                    num_significant=5, top_k=3, hidden_size=8, num_heads=2, ffn_hidden=6)
    defaults.update(overrides)
    return SAGDFNConfig(**defaults)


@pytest.fixture
def fitted_scaler():
    return StandardScaler().fit(np.array([10.0, 20.0, 30.0]))


class TestBundleRoundTrip:
    def test_all_fields_survive(self, tmp_path, fitted_scaler):
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle", scaler=fitted_scaler,
                           metadata={"dataset": "tiny", "epochs": 3})
        bundle = load_bundle(path)
        assert bundle.version == BUNDLE_VERSION
        assert bundle.model_type == "SAGDFN"
        assert bundle.metadata == {"dataset": "tiny", "epochs": 3}
        assert bundle.config["num_nodes"] == 8
        assert bundle.scaler_state == {"type": "StandardScaler", "mean": 20.0,
                                       "std": pytest.approx(fitted_scaler.std_),
                                       "count": 3,
                                       "m2": pytest.approx(fitted_scaler._m2)}
        assert np.array_equal(bundle.sampler_candidates, model.sampler.candidates)
        assert np.array_equal(bundle.index_set, model.index_set)
        for name, parameter in model.named_parameters():
            assert np.array_equal(bundle.state[name], parameter.data)

    def test_rehydrated_model_is_equivalent(self, tmp_path, fitted_scaler, rng):
        model = SAGDFN(_tiny_config(seed=4))
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle", scaler=fitted_scaler)
        service = ForecastService.from_checkpoint(path)
        clone = service.model
        assert np.array_equal(clone.sampler.candidates, model.sampler.candidates)
        assert np.array_equal(clone.index_set, model.index_set)
        batch = rng.normal(size=(2, 4, 8, 2))
        model.eval(), clone.eval()
        with default_dtype("float64"):
            assert np.allclose(model(Tensor(batch)).data, clone(Tensor(batch)).data)

    def test_unfit_scaler_rejected(self, tmp_path):
        model = SAGDFN(_tiny_config())
        with pytest.raises(ValueError, match="fit"):
            save_bundle(model, tmp_path / "bundle", scaler=StandardScaler())


class TestDtypePolicy:
    def test_float32_bundle_stays_float32(self, tmp_path, fitted_scaler):
        with default_dtype("float32"):
            model = SAGDFN(_tiny_config())
            model.refresh_graph(0)
            path = save_bundle(model, tmp_path / "f32", scaler=fitted_scaler)
        bundle = load_bundle(path)
        assert bundle.dtype == "float32"
        # Rehydration happens under the default float64 policy, yet the
        # service must honour the dtype the bundle was trained in.
        service = ForecastService.from_checkpoint(path)
        for parameter in service.model.parameters():
            assert parameter.data.dtype == np.float32
        window = np.random.default_rng(0).normal(size=(1, 4, 8, 2))
        assert service.predict(window).dtype == np.float32

    def test_float64_roundtrip_dtype(self, tmp_path):
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "f64")
        service = ForecastService.from_checkpoint(path)
        for parameter in service.model.parameters():
            assert parameter.data.dtype == np.float64


class TestMismatchedArchives:
    def test_plain_checkpoint_is_not_a_bundle(self, tmp_path):
        model = SAGDFN(_tiny_config())
        path = save_checkpoint(model, tmp_path / "plain")
        with pytest.raises(ValueError, match="not a serving bundle"):
            load_bundle(path)

    def test_bundle_params_load_into_plain_model(self, tmp_path):
        """load_checkpoint skips reserved keys, so bundles are backwards-usable."""
        model = SAGDFN(_tiny_config(seed=1))
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle", metadata={"tag": "x"})
        clone = SAGDFN(_tiny_config(seed=2))
        metadata = load_checkpoint(clone, path)
        assert metadata == {"tag": "x"}
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_wrong_architecture_raises(self, tmp_path):
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        other = SAGDFN(_tiny_config(hidden_size=16))
        with pytest.raises(ValueError):
            load_checkpoint(other, path)

    def test_future_bundle_version_rejected(self, tmp_path):
        model = SAGDFN(_tiny_config())
        path = save_bundle(model, tmp_path / "bundle")
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        info = json.loads(str(payload["__bundle__"]))
        info["version"] = BUNDLE_VERSION + 1
        payload["__bundle__"] = np.array(json.dumps(info))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_bundle(path)

    def test_missing_config_rejected_by_service(self, tmp_path):
        model = SAGDFN(_tiny_config())
        path = save_bundle(model, tmp_path / "bundle")
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        info = json.loads(str(payload["__bundle__"]))
        info["config"] = None
        payload["__bundle__"] = np.array(json.dumps(info))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="config"):
            ForecastService.from_checkpoint(path)


    @staticmethod
    def _with_config_key(path, dest, key, value):
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        info = json.loads(str(payload["__bundle__"]))
        info["config"][key] = value
        payload["__bundle__"] = np.array(json.dumps(info))
        np.savez(dest, **payload)
        return dest

    @pytest.mark.parametrize("recorded", ["numpy", "not-installed-here"])
    def test_recorded_backend_key_is_ignored(self, tmp_path, rng, recorded):
        """Bundles written while the engine had pluggable execution backends
        carry ``config["backend"]``; they load and serve bit-identically to
        the same bundle without the key, whatever name it records."""
        model = SAGDFN(_tiny_config(seed=5))
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        older = self._with_config_key(path, tmp_path / "older.npz", "backend", recorded)
        batch = rng.normal(size=(2, 4, 8, 2))
        expected = ForecastService.from_checkpoint(path).predict(batch)
        served = ForecastService.from_checkpoint(older).predict(batch)
        assert np.array_equal(served, expected)

    def test_other_unknown_config_keys_still_fail(self, tmp_path):
        model = SAGDFN(_tiny_config())
        path = save_bundle(model, tmp_path / "bundle")
        odd = self._with_config_key(path, tmp_path / "odd.npz", "colour", "blue")
        with pytest.raises(TypeError, match="colour"):
            ForecastService.from_checkpoint(odd)


class TestBundleIntegrity:
    def test_digest_recorded_and_verified(self, tmp_path):
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        with np.load(path, allow_pickle=False) as archive:
            assert "__digest__" in archive.files
        load_bundle(path)  # verification on by default, passes untouched
        load_bundle(path, verify_digest=False)

    def test_tampered_payload_fails_digest(self, tmp_path):
        """Flip one weight value while keeping the stale recorded digest:
        load_bundle must refuse the bundle as corrupt."""
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        victim = next(name for name, value in payload.items()
                      if not name.startswith("__") and value.size)
        tampered = payload[victim].copy()
        tampered.flat[0] += 1.0
        payload[victim] = tampered
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="corrupt"):
            load_bundle(path)
        # Escape hatch for forensics: verification can be switched off.
        load_bundle(path, verify_digest=False)

    def test_truncated_bundle_fails_loudly(self, tmp_path):
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):
            load_bundle(path)

    def test_legacy_bundle_without_digest_still_loads(self, tmp_path):
        """Bundles written before the digest key must stay loadable."""
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files
                       if name != "__digest__"}
        np.savez(path, **payload)
        bundle = load_bundle(path)
        assert bundle.version == BUNDLE_VERSION

    def test_no_tmp_file_left_behind(self, tmp_path):
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        save_bundle(model, tmp_path / "bundle")
        leftovers = [p for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []

    def test_serve_cli_reports_corruption_as_one_line_error(self, tmp_path):
        from repro.serve.__main__ import main as serve_main

        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip one byte mid-archive
        path.write_bytes(bytes(data))
        with pytest.raises(SystemExit, match="error: cannot load"):
            serve_main([str(path), "--requests", "1"])

    def test_serve_cli_reports_truncation_as_one_line_error(self, tmp_path):
        from repro.serve.__main__ import main as serve_main

        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(SystemExit, match="error: cannot load"):
            serve_main([str(path), "--requests", "1"])


class TestLegacyMigration:
    def test_per_head_attention_checkpoint_loads(self, tmp_path, rng):
        """Seed-era per-head FFN keys migrate through Module._upgrade_state_dict."""
        model = SAGDFN(_tiny_config(seed=7))
        model.refresh_graph(0)
        state = model.state_dict()

        legacy = {}
        for name, value in state.items():
            if name.startswith("attention.head_"):
                continue
            legacy[name] = value
        attention = model.attention
        for p in range(attention.num_heads):
            head = f"attention.heads.{p}."
            legacy[f"{head}input_layer.weight"] = attention.head_w1.data[p]
            legacy[f"{head}input_layer.bias"] = attention.head_b1.data[p]
            legacy[f"{head}output_layer.weight"] = attention.head_w2.data[p]
            legacy[f"{head}output_layer.bias"] = attention.head_b2.data[p]
        legacy["__metadata__"] = np.array(json.dumps({"era": "per-head"}))
        path = tmp_path / "legacy.npz"
        np.savez(path, **legacy)

        clone = SAGDFN(_tiny_config(seed=9))
        clone._index_set = model.index_set.copy()
        metadata = load_checkpoint(clone, path)
        assert metadata == {"era": "per-head"}
        batch = Tensor(rng.normal(size=(2, 4, 8, 2)))
        model.eval(), clone.eval()
        assert np.allclose(model(batch).data, clone(batch).data)