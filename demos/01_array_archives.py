"""Round-trip the array container formats, then watch a corrupt file fail.

The package reads and writes two containers: single arrays in the
format-1.0 binary layout (magic, header dict, raw payload) and stored zips
of such arrays. Challenge archives (the six canonical members), feature
sets and reduction bundles are all zips of this kind, written and read by
one codec, write_bundle and read_bundle.
"""

import tempfile
from pathlib import Path

import numpy as np

from wlclass.dataset_io import (
    ChallengeDataset,
    read_array,
    read_challenge_archive,
    write_array,
    write_challenge_archive,
)
from wlclass.errors import WlclassError

rng = np.random.default_rng(0)

# single arrays: bytes in, identical values out
matrix = rng.standard_normal((4, 3))
blob = write_array(matrix)
print(f"serialized a 4x3 float64 array into {len(blob)} bytes")
print("header line:", blob[10 : blob.index(b'\n')].decode().strip())
restored = read_array(blob)
print("round trip exact:", np.array_equal(matrix, restored))

# a challenge archive is six named arrays in one stored zip
names = ["alpha", "beta", "gamma"]
dataset = ChallengeDataset(
    x_train=rng.standard_normal((6, 20, 7)),
    y_train=np.array([0, 0, 1, 1, 2, 2]),
    model_train=names,
    x_test=rng.standard_normal((3, 20, 7)),
    y_test=np.array([0, 1, 2]),
    model_test=names,
)
with tempfile.TemporaryDirectory() as scratch:
    scratch = Path(scratch)
    write_challenge_archive(dataset, scratch / "archive.npz")
    loaded = read_challenge_archive(scratch / "archive.npz")
    print("archive train tensor:", loaded.x_train.shape, "classes:", loaded.model_train)

    # every malformed input surfaces as one typed error family, never a traceback
    (scratch / "broken.npz").write_bytes(blob[:40])
    for bad in ("broken.npz", "does_not_exist.npz"):
        try:
            read_challenge_archive(scratch / bad)
        except WlclassError as exc:
            print(f"{bad}: {type(exc).__name__}: {exc}")
