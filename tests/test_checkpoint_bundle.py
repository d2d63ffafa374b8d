"""Checkpoint bundle round-trips, dtype policy, and rejection of other formats."""

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


def _rewrite_bundle(path, edit_info=None, drop=()):
    """Rewrite a saved bundle in place: edit its ``__bundle__`` JSON record
    with ``edit_info(info)`` and drop the archive keys in ``drop``."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {name: archive[name] for name in archive.files if name not in drop}
    if edit_info is not None:
        info = json.loads(str(payload["__bundle__"]))
        edit_info(info)
        payload["__bundle__"] = np.array(json.dumps(info))
    np.savez(path, **payload)
    return path


# The one-shot CLI reads the bundle itself with one worker and through the
# cluster with more; both must fail with the same one-line error.
WORKER_MODES = pytest.mark.parametrize("workers", ["1", "2"])


def _set_version(version):
    def edit(info):
        if version is None:
            del info["version"]
        else:
            info["version"] = version
    return edit


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

    @pytest.mark.parametrize("version", [None, 1, 2, BUNDLE_VERSION + 1],
                             ids=["absent", "1", "2", "4"])
    def test_unsupported_bundle_version_rejected(self, tmp_path, version):
        model = SAGDFN(_tiny_config())
        path = save_bundle(model, tmp_path / "bundle")
        _rewrite_bundle(path, _set_version(version))
        with pytest.raises(ValueError, match="version"):
            load_bundle(path)

    @pytest.mark.parametrize("key", ["count", "m2"])
    def test_incomplete_scaler_record_rejected(self, tmp_path, fitted_scaler, key):
        model = SAGDFN(_tiny_config())
        path = save_bundle(model, tmp_path / "bundle", scaler=fitted_scaler)
        _rewrite_bundle(path, lambda info: info["scaler"].pop(key))
        with pytest.raises(ValueError, match="scaler record"):
            load_bundle(path)

    def test_missing_config_rejected_by_service(self, tmp_path):
        model = SAGDFN(_tiny_config())
        path = save_bundle(model, tmp_path / "bundle")
        _rewrite_bundle(path, lambda info: info.update(config=None))
        with pytest.raises(ValueError, match="config"):
            ForecastService.from_checkpoint(path)

    @pytest.mark.parametrize("key", ["colour", "backend"])
    def test_other_unknown_config_keys_still_fail(self, tmp_path, key):
        model = SAGDFN(_tiny_config())
        path = save_bundle(model, tmp_path / "bundle")
        _rewrite_bundle(path, lambda info: info["config"].update({key: "blue"}))
        with pytest.raises(TypeError, match=key):
            ForecastService.from_checkpoint(path)


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

    def test_tampered_payload_without_digest_rejected(self, tmp_path):
        """Stripping the digest must not let a tampered payload through."""
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files
                       if name != "__digest__"}
        payload["attention.head_w1"] = payload["attention.head_w1"] + 1.0
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="digest"):
            load_bundle(path)
        # Cluster workers skip the check after their parent has made it.
        load_bundle(path, verify_digest=False)

    def test_no_tmp_file_left_behind(self, tmp_path):
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        save_bundle(model, tmp_path / "bundle")
        leftovers = [p for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []

    @WORKER_MODES
    def test_serve_cli_reports_corruption_as_one_line_error(self, tmp_path, workers):
        from repro.serve.__main__ import main as serve_main

        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip one byte mid-archive
        path.write_bytes(bytes(data))
        with pytest.raises(SystemExit, match="error: cannot load"):
            serve_main([str(path), "--requests", "1", "--workers", workers])

    @pytest.mark.parametrize(
        "edit_info, drop",
        [(None, ("__digest__",)), (_set_version(None), ()), (_set_version(2), ()),
         (_set_version(BUNDLE_VERSION + 1), ())],
        ids=["no-digest", "version-absent", "version-2", "version-4"],
    )
    @WORKER_MODES
    def test_serve_cli_reports_rejected_bundle_as_one_line_error(self, tmp_path,
                                                                 edit_info, drop,
                                                                 workers):
        from repro.serve.__main__ import main as serve_main

        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = _rewrite_bundle(save_bundle(model, tmp_path / "bundle"), edit_info, drop)
        with pytest.raises(SystemExit, match="error: cannot load") as raised:
            serve_main([str(path), "--requests", "1", "--workers", workers])
        assert "\n" not in str(raised.value)

    @WORKER_MODES
    def test_serve_cli_reports_truncation_as_one_line_error(self, tmp_path, workers):
        from repro.serve.__main__ import main as serve_main

        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        path = save_bundle(model, tmp_path / "bundle")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(SystemExit, match="error: cannot load"):
            serve_main([str(path), "--requests", "1", "--workers", workers])


def _per_head_attention_state(state):
    """``state`` with the stacked attention heads split into per-head keys."""
    retired = {k: v for k, v in state.items() if not k.startswith("attention.head_")}
    for p in range(state["attention.head_w1"].shape[0]):
        head = f"attention.heads.{p}."
        retired[f"{head}input_layer.weight"] = state["attention.head_w1"][p]
        retired[f"{head}input_layer.bias"] = state["attention.head_b1"][p]
        retired[f"{head}output_layer.weight"] = state["attention.head_w2"][p]
        retired[f"{head}output_layer.bias"] = state["attention.head_b2"][p]
    return retired


def _per_gate_cell_state(state):
    """``state`` with each cell's shared gate convolution split per gate."""
    retired = {}
    for key, value in state.items():
        if ".gates." not in key:
            retired[key] = value
            continue
        hidden = value.shape[-1] // 2
        retired[key.replace(".gates.", ".reset_gate.")] = value[..., :hidden]
        retired[key.replace(".gates.", ".update_gate.")] = value[..., hidden:]
    return retired


def _load_via_state_dict(model, state, tmp_path):
    model.load_state_dict(state)


def _load_via_checkpoint(model, state, tmp_path):
    path = tmp_path / "retired.npz"
    np.savez(path, __metadata__=np.array("{}"), **state)
    load_checkpoint(model, path)


class TestRetiredLayouts:
    @pytest.mark.parametrize("loader", [_load_via_state_dict, _load_via_checkpoint],
                             ids=["load_state_dict", "load_checkpoint"])
    @pytest.mark.parametrize("retire", [_per_head_attention_state, _per_gate_cell_state],
                             ids=["per-head-attention", "per-gate-cell"])
    def test_retired_parameter_layout_rejected(self, tmp_path, retire, loader):
        """Parameter keys of earlier layouts are a key mismatch, not migrated."""
        model = SAGDFN(_tiny_config(seed=7))
        with pytest.raises(KeyError, match="state_dict mismatch"):
            loader(SAGDFN(_tiny_config(seed=9)), retire(model.state_dict()), tmp_path)
