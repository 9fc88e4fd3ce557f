"""Byte mutations of each file format the program reads: it loads or raises ContractError.

Every trial overwrites a few bytes of a small valid file, drawn from a
seeded stream, and reads it back with the reader the CLI uses. Any other
exception is an escape, and so is a checkpoint that loads a NaN or an
infinity, which would reach the model unnoticed.
"""

import numpy as np
import pytest

from lightavseg import pngio
from lightavseg.audio import Waveform, read_wav, write_wav
from lightavseg.harness import (
    AdamWState, TrainConfig, config_from_file, config_to_flat_text, load_checkpoint,
    save_checkpoint,
)
from lightavseg.tensor import ContractError, RngState, parameter

# byte strings that sit on the edges of length, rank, sign and float fields
EDGES = [bytes([b]) for b in (0x00, 0x01, 0x7F, 0x80, 0xFF)]
EDGES += [np.array(v, "<f8").tobytes() for v in (np.nan, np.inf, -np.inf, 1.7e308, 5e-324)]
EDGES.append(b"\xff" * 8)  # a NaN over any float64 whose top two bytes it covers


def _png(path):
    frame = (RngState(1).uniform((5, 6, 3)) * 255).astype(np.uint8)
    pngio.write_png(path, frame)


def _wav(path):
    write_wav(path, Waveform(RngState(2).uniform((64,), -0.9, 0.9), 16000))


def _checkpoint(path):
    rng = RngState(3)
    # most of the file is float data, as in a real checkpoint
    params = {"a.weight": parameter(rng.uniform((8, 12), -1, 1)),
              "a.bias": parameter(rng.uniform((8,), -1, 1))}
    state = AdamWState(m={n: p.data * 0.5 for n, p in params.items()},
                       v={n: p.data ** 2 for n, p in params.items()}, t=3)
    save_checkpoint(path, TrainConfig(), params, state, RngState(4, 5), 3)


def _read_checkpoint(path):
    ckpt = load_checkpoint(path)
    for arrays in (ckpt.params, ckpt.adam_m, ckpt.adam_v):
        for name, arr in arrays.items():
            assert np.isfinite(arr).all(), f"non-finite {name!r} loaded"


def _config(path):
    path.write_text(config_to_flat_text(TrainConfig()))


@pytest.mark.parametrize("write,read,trials", [
    (_png, pngio.read_png, 1500),
    (_wav, read_wav, 1500),
    (_checkpoint, _read_checkpoint, 1500),
    (_config, config_from_file, 1500),
], ids=["png", "wav", "checkpoint", "config"])
def test_mutated_file_loads_or_raises_contract_error(tmp_path, write, read, trials):
    path = tmp_path / "input"
    write(path)
    clean = path.read_bytes()
    read(path)
    rng = RngState(22)
    loaded = 0
    for _ in range(trials):
        blob = bytearray(clean)
        # one to four overwrites, each a random byte or an edge string
        for _ in range(int(rng.integers(1, 5))):
            at = int(rng.integers(0, len(blob)))
            pick = int(rng.integers(0, 256 + len(EDGES)))
            new = bytes([pick]) if pick < 256 else EDGES[pick - 256]
            blob[at:at + len(new)] = new[:len(blob) - at]
        path.write_bytes(bytes(blob))
        try:
            read(path)
            loaded += 1
        except ContractError:
            pass
    assert loaded < trials  # the mutations reach the readers' checks
