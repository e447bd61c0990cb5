"""Fuzzing of the file readers: whatever a checkpoint, a BSQ sidecar or a
bundle file holds, the reader returns or raises its own domain error
(TrainError for checkpoints, DataError for cube files).

Examples are derandomized and bounded, so every run draws the same inputs.
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from unmix_ldvae.data import DataError, _read_bsq, bundles_from_json
from unmix_ldvae.model import ModelConfig, init_params
from unmix_ldvae.train import (
    AdamState,
    Checkpoint,
    TrainError,
    load_checkpoint,
    save_checkpoint,
)

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _valid_checkpoint() -> bytes:
    config = ModelConfig(patch=1, bands=4, k=2, seg_len=2, d=4, layers=1, heads=2, ff_dim=4)
    rng = np.random.default_rng(0)
    params = init_params(config, rng)
    ck = Checkpoint(params, AdamState.zeros(params), 3, rng.bit_generator.state, config, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.ldvt"
        save_checkpoint(path, ck)
        return path.read_bytes()


VALID_CHECKPOINT = _valid_checkpoint()
(_HEADER_LEN,) = struct.unpack_from("<I", VALID_CHECKPOINT, 8)
VALID_HEADER = json.loads(VALID_CHECKPOINT[12 : 12 + _HEADER_LEN])


def _with_header(header) -> bytes:
    packed = json.dumps(header).encode("utf-8")
    return (
        VALID_CHECKPOINT[:8] + struct.pack("<I", len(packed)) + packed
        + VALID_CHECKPOINT[12 + _HEADER_LEN :]
    )


def _load_checkpoint_bytes(buf: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.ldvt"
        path.write_bytes(buf)
        try:
            load_checkpoint(path)
        except TrainError:
            pass


def test_fuzz_seed_checkpoint_loads():
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "ck.ldvt").write_bytes(_with_header(VALID_HEADER))
        assert load_checkpoint(Path(tmp) / "ck.ldvt").epoch == 3


@FUZZ
@given(st.binary(max_size=300) | st.binary(max_size=300).map(lambda b: VALID_CHECKPOINT[:8] + b))
def test_checkpoint_from_arbitrary_bytes(buf):
    _load_checkpoint_bytes(buf)


@FUZZ
@given(
    st.integers(0, len(VALID_CHECKPOINT)),
    st.lists(
        st.tuples(st.integers(0, len(VALID_CHECKPOINT) - 1), st.integers(0, 255)),
        max_size=6,
    ),
)
def test_checkpoint_with_truncation_and_flipped_bytes(keep, flips):
    buf = bytearray(VALID_CHECKPOINT)
    for pos, value in flips:
        buf[pos] = value
    _load_checkpoint_bytes(bytes(buf[:keep]))


@FUZZ
@given(
    json_values
    | st.builds(
        lambda key, value: {**VALID_HEADER, key: value},
        st.sampled_from(sorted(VALID_HEADER)),
        json_values,
    )
    | st.builds(
        lambda key, value: {**VALID_HEADER, "model": {**VALID_HEADER["model"], key: value}},
        st.sampled_from(sorted(VALID_HEADER["model"])),
        json_values,
    )
)
def test_checkpoint_with_arbitrary_header(header):
    _load_checkpoint_bytes(_with_header(header))


VALID_SIDECAR = {"height": 2, "width": 1, "bands": 2, "dtype": "f32", "interleave": "bsq"}


@FUZZ
@given(
    st.binary(max_size=120)
    | json_values.map(lambda v: json.dumps(v).encode())
    | st.builds(
        lambda key, value: json.dumps({**VALID_SIDECAR, key: value}).encode(),
        st.sampled_from(sorted(VALID_SIDECAR)),
        json_values,
    ),
    st.binary(max_size=40),
)
def test_bsq_sidecar_and_payload(sidecar, payload):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "cube"
        Path(str(base) + ".json").write_bytes(sidecar)
        Path(str(base) + ".bsq").write_bytes(payload)
        try:
            _read_bsq(base)
        except DataError:
            pass


bundle_entries = st.fixed_dictionaries(
    {"mean": json_values, "chol_blocks": json_values},
    optional={"name": json_values},
)


@FUZZ
@given(
    st.text(max_size=80)
    | st.binary(max_size=80)
    | json_values.map(json.dumps)
    | st.builds(
        lambda seg_len, entries: json.dumps({"seg_len": seg_len, "endmembers": entries}),
        json_values,
        st.lists(bundle_entries | json_values, max_size=3),
    )
)
def test_bundle_json(text):
    try:
        bundles_from_json(text)
    except DataError:
        pass
