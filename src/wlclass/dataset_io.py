"""Parsing and writing of the challenge's array-archive format plus raw telemetry ingestion.

The distribution format is a zip container whose members are serialized
arrays: magic ``\\x93NUMPY``, a one-byte major/minor version, a little-endian
header length, then an ASCII dict with keys ``descr``/``fortran_order``/``shape``
followed by the raw payload. The parser here is written from first
principles so that arbitrary byte input always produces a typed error,
never a crash; the widely used reference serializers can read what we
write and vice versa. Feature sets and reduction bundles are the same
kind of zip plus a JSON meta member; write_bundle and read_bundle are the
one codec for all three.

Raw telemetry arrives as delimited text, one row per timestamped sample,
grouped by job (and device, for multi-GPU jobs).
"""

import ast
import csv
import json
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ArchiveIoError,
    BadMagicError,
    DtypeMismatchError,
    EmptyFileError,
    LabelOutOfRangeError,
    MalformedArchiveError,
    MalformedHeaderError,
    MissingArchiveError,
    MissingKeyError,
    SchemaMismatchError,
    ShapeMismatchError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
    WlclassError,
)

MAGIC = b"\x93NUMPY"

#: GPU metrics, in the fixed order used by the challenge archives.
GPU_SENSORS = (
    "utilization_gpu_pct",
    "utilization_memory_pct",
    "memory_free_MiB",
    "memory_used_MiB",
    "temperature_gpu",
    "temperature_memory",
    "power_draw_W",
)

ARCHIVE_KEYS = ("X_train", "y_train", "model_train", "X_test", "y_test", "model_test")

NUM_CLASSES = 26

# descr code -> (element_type, itemsize); string kinds carry a per-element length.
_SCALAR_CODES = {
    "f8": ("float64", 8),
    "f4": ("float32", 4),
    "i8": ("int64", 8),
    "i4": ("int32", 4),
}
_SCALAR_TYPES = {name: (code, size) for code, (name, size) in _SCALAR_CODES.items()}

_MAX_NDIM = 32
_MAX_HEADER = 1 << 20


@dataclass(frozen=True)
class ArrayDescriptor:
    """Parsed metadata of one serialized array.

    element_type is one of float64/float32/int64/int32 or, for fixed-length
    strings, "bytes"/"str" with item_length giving the per-element length k.
    """

    element_type: str
    byte_order: str  # "little" | "big"
    layout: str  # "row-major" | "column-major"
    shape: tuple[int, ...]
    item_length: int | None = None

    @property
    def itemsize(self) -> int:
        if self.element_type in _SCALAR_TYPES:
            return _SCALAR_TYPES[self.element_type][1]
        if self.element_type == "bytes":
            return self.item_length
        if self.element_type == "str":
            return 4 * self.item_length  # 4-byte code points
        raise UnsupportedDtypeError(self.element_type)

    @property
    def payload_nbytes(self) -> int:
        return math.prod(self.shape) * self.itemsize

    def to_numpy_dtype(self) -> np.dtype:
        order = "<" if self.byte_order == "little" else ">"
        if self.element_type in _SCALAR_TYPES:
            return np.dtype(order + _SCALAR_TYPES[self.element_type][0])
        if self.element_type == "bytes":
            return np.dtype(f"|S{self.item_length}")
        return np.dtype(f"{order}U{self.item_length}")


def _parse_descr(descr) -> tuple[str, str, int | None]:
    """Map a header descr string to (element_type, byte_order, item_length)."""
    if not isinstance(descr, str) or len(descr) < 2:
        raise UnsupportedDtypeError(f"unsupported descr {descr!r}")
    order_code, code = descr[0], descr[1:]
    if order_code not in "<>|=":
        raise UnsupportedDtypeError(f"unsupported descr {descr!r}")
    byte_order = "big" if order_code == ">" else "little"
    if code in _SCALAR_CODES:
        return _SCALAR_CODES[code][0], byte_order, None
    if code and code[0] in ("S", "U"):
        try:
            k = int(code[1:])
        except ValueError:
            raise UnsupportedDtypeError(f"unsupported descr {descr!r}") from None
        if k < 1:
            raise UnsupportedDtypeError(f"string length must be >= 1, got {descr!r}")
        return ("bytes" if code[0] == "S" else "str"), byte_order, k
    raise UnsupportedDtypeError(f"unsupported descr {descr!r}")


def parse_array_header(data: bytes) -> tuple[ArrayDescriptor, int]:
    """Parse a serialized-array header from raw bytes.

    Returns the descriptor and the byte offset at which the payload starts.
    Total-length consistency (shape product times element size equals the
    remaining bytes) is enforced, so a descriptor returned from here always
    satisfies its invariants.

    Raises:
        BadMagicError: first six bytes are not the array magic.
        UnsupportedVersionError: format version other than 1.0 or 2.0.
        MalformedHeaderError: truncated input or an unparseable header dict.
        UnsupportedDtypeError: element type outside the supported set.
    """
    data = bytes(data)
    if data[:6] != MAGIC:
        raise BadMagicError(f"bad magic {data[:6]!r}")
    if len(data) < 10:
        raise MalformedHeaderError("input ends before the header length field")
    version = (data[6], data[7])
    if version == (1, 0):
        header_len = int.from_bytes(data[8:10], "little")
        header_start = 10
    elif version == (2, 0):
        if len(data) < 12:
            raise MalformedHeaderError("input ends before the header length field")
        header_len = int.from_bytes(data[8:12], "little")
        header_start = 12
    else:
        raise UnsupportedVersionError(f"version {version[0]}.{version[1]}")
    if header_len > _MAX_HEADER:
        raise MalformedHeaderError(f"header length {header_len} exceeds cap")
    offset = header_start + header_len
    if len(data) < offset:
        raise MalformedHeaderError("header is truncated")
    try:
        header_text = data[header_start:offset].decode("ascii")
    except UnicodeDecodeError:
        raise MalformedHeaderError("header is not ASCII") from None
    try:
        header = ast.literal_eval(header_text.strip())
    except Exception:
        raise MalformedHeaderError("header dict is unparseable") from None
    if not isinstance(header, dict) or set(header) != {"descr", "fortran_order", "shape"}:
        raise MalformedHeaderError("header keys must be descr/fortran_order/shape")
    element_type, byte_order, item_length = _parse_descr(header["descr"])
    if not isinstance(header["fortran_order"], bool):
        raise MalformedHeaderError("fortran_order must be a boolean")
    layout = "column-major" if header["fortran_order"] else "row-major"
    shape = header["shape"]
    if not isinstance(shape, tuple) or len(shape) > _MAX_NDIM:
        raise MalformedHeaderError(f"bad shape {shape!r}")
    for dim in shape:
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise MalformedHeaderError(f"bad shape {shape!r}")
    descriptor = ArrayDescriptor(element_type, byte_order, layout, tuple(shape), item_length)
    if len(data) - offset != descriptor.payload_nbytes:
        raise MalformedHeaderError(
            f"payload is {len(data) - offset} bytes, shape {shape} needs "
            f"{descriptor.payload_nbytes}"
        )
    return descriptor, offset


def read_array(data: bytes) -> np.ndarray:
    """Deserialize one array from raw member bytes."""
    descriptor, offset = parse_array_header(data)
    arr = np.frombuffer(data[offset:], dtype=descriptor.to_numpy_dtype())
    order = "F" if descriptor.layout == "column-major" else "C"
    return arr.reshape(descriptor.shape, order=order)


def write_array(arr: np.ndarray) -> bytes:
    """Serialize an array to format-1.0 bytes (row-major, 64-byte aligned header)."""
    arr = np.ascontiguousarray(arr)
    kind, itemsize = arr.dtype.kind, arr.dtype.itemsize
    if kind == "f" and itemsize in (4, 8):
        descr = f"<f{itemsize}"
    elif kind == "i" and itemsize in (4, 8):
        descr = f"<i{itemsize}"
    elif kind == "S":
        descr = f"|S{max(itemsize, 1)}"
    else:
        raise UnsupportedDtypeError(f"cannot serialize dtype {arr.dtype}")
    header = f"{{'descr': {descr!r}, 'fortran_order': False, 'shape': {arr.shape}, }}"
    prefix_len = len(MAGIC) + 2 + 2
    pad = -(prefix_len + len(header) + 1) % 64
    header = header + " " * pad + "\n"
    out = bytearray()
    out += MAGIC
    out += bytes((1, 0))
    out += len(header).to_bytes(2, "little")
    out += header.encode("ascii")
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    out += arr.tobytes(order="C")
    return bytes(out)


@dataclass
class RawTrial:
    """One contiguous multi-sensor time series from a single (job, device) pair."""

    job_id: str
    label: int | None
    series: np.ndarray  # n_samples x n_sensors, float64
    label_name: str | None = None
    device_id: str = ""

    def __post_init__(self):
        self.series = np.asarray(self.series, dtype=np.float64)
        if self.series.ndim != 2 or self.series.shape[0] < 1:
            raise ShapeMismatchError(f"trial series must be n x sensors, got {self.series.shape}")
        if self.series.shape[1] != len(GPU_SENSORS):
            raise ShapeMismatchError(
                f"trial needs {len(GPU_SENSORS)} sensors, got {self.series.shape[1]}"
            )
        if not np.isfinite(self.series).all():
            raise SchemaMismatchError(
                f"trial {self.job_id!r} contains non-finite readings after validation"
            )

    @property
    def n_samples(self) -> int:
        return self.series.shape[0]


@dataclass
class ChallengeDataset:
    """The six-array challenge bundle: windowed trials, labels, and class names."""

    x_train: np.ndarray  # trials x samples x 7
    y_train: np.ndarray  # int64 labels, 0-based
    model_train: list[str]  # class name per label index
    x_test: np.ndarray
    y_test: np.ndarray
    model_test: list[str]
    sensor_order: tuple[str, ...] = GPU_SENSORS
    label_convention: str = "0-based"  # convention found in the source archive

    def validate(self) -> "ChallengeDataset":
        if self.x_train.ndim != 3 or self.x_test.ndim != 3:
            raise ShapeMismatchError("X arrays must be trials x samples x sensors")
        if self.x_train.shape[1] != self.x_test.shape[1]:
            raise ShapeMismatchError(
                f"sample counts differ: {self.x_train.shape[1]} vs {self.x_test.shape[1]}"
            )
        n_sensors = len(self.sensor_order)
        if self.x_train.shape[2] != n_sensors or self.x_test.shape[2] != n_sensors:
            raise ShapeMismatchError(f"trailing dimension must be {n_sensors}")
        for x, y, name in ((self.x_train, self.y_train, "train"), (self.x_test, self.y_test, "test")):
            if y.ndim != 1 or len(y) != x.shape[0]:
                raise ShapeMismatchError(f"{name} labels do not align with trials")
        for y, model, name in (
            (self.y_train, self.model_train, "train"),
            (self.y_test, self.model_test, "test"),
        ):
            if len(y) and (y.min() < 0 or y.max() > NUM_CLASSES - 1):
                raise LabelOutOfRangeError(
                    f"{name} labels span [{y.min()}, {y.max()}], allowed [0, {NUM_CLASSES - 1}]"
                )
            if len(y) and y.max() >= len(model):
                raise ShapeMismatchError(f"{name} name table is shorter than the label range")
        return self

    @property
    def class_count(self) -> int:
        return len(self.model_train)

    def equal(self, other: "ChallengeDataset") -> bool:
        return (
            np.array_equal(self.x_train, other.x_train)
            and np.array_equal(self.y_train, other.y_train)
            and np.array_equal(self.x_test, other.x_test)
            and np.array_equal(self.y_test, other.y_test)
            and self.model_train == other.model_train
            and self.model_test == other.model_test
            and self.sensor_order == other.sensor_order
        )


def _names_to_table(raw: np.ndarray, y: np.ndarray, member: str) -> list[str]:
    """Normalize a model-name member to a table indexed by label.

    Archives in the wild store either one name per trial (parallel to y) or
    one name per class; both are accepted, names matched case-insensitively
    across duplicates.
    """
    if raw.ndim != 1:
        raise ShapeMismatchError(f"{member} must be one-dimensional")
    names = []
    for v in raw.tolist():
        names.append(v.decode("utf-8", "replace") if isinstance(v, bytes) else str(v))
    if len(y) and len(raw) == len(y) and len(raw) != int(y.max()) + 1:
        table: dict[int, str] = {}
        for label, name in zip(y.tolist(), names):
            seen = table.setdefault(label, name)
            if seen.lower() != name.lower():
                raise ShapeMismatchError(
                    f"{member} maps label {label} to both {seen!r} and {name!r}"
                )
        size = int(y.max()) + 1
        return [table.get(i, f"class_{i}") for i in range(size)]
    return names


def _normalize_labels(y: np.ndarray, member: str) -> tuple[np.ndarray, str]:
    """Accept 0- or 1-based label vectors, returning 0-based plus the convention found."""
    if y.dtype.kind != "i":
        raise DtypeMismatchError(f"{member} must be an integer array, got {y.dtype}")
    if y.ndim != 1:
        raise ShapeMismatchError(f"{member} must be one-dimensional")
    if len(y) == 0:
        return y.astype(np.int64), "0-based"
    lo, hi = int(y.min()), int(y.max())
    if 0 <= lo and hi <= NUM_CLASSES - 1:
        return y.astype(np.int64), "0-based"
    if 1 <= lo and hi == NUM_CLASSES:
        return y.astype(np.int64) - 1, "1-based"
    raise LabelOutOfRangeError(f"{member} labels span [{lo}, {hi}]")


_MAX_MEMBER = 2 << 30


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace, no NaN: equal objects give equal text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_bundle(path, arrays: dict, meta: dict | None = None) -> None:
    """Write a zip bundle (path or binary file-like): one stored `<key>.npy`
    member per array in the given order, then `meta.json` holding the
    canonical JSON of meta when given. Every member carries the same fixed
    timestamp, so equal content gives equal bytes. Members are serialized
    one at a time, so at most one payload copy exists at once.
    """
    def put(zf, name, payload):
        info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_STORED
        zf.writestr(info, payload)

    try:
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
            for key, arr in arrays.items():
                put(zf, f"{key}.npy", write_array(arr))
            if meta is not None:
                put(zf, "meta.json", canonical_json(meta).encode("utf-8"))
    except OSError as exc:
        raise ArchiveIoError(f"cannot write {path}: {exc}") from None


def read_bundle(path, required, optional=()) -> dict:
    """Read a zip bundle (path or binary file-like) into {key: value}.

    Array members are looked up by key with or without the `.npy` suffix;
    the key "meta" names the `meta.json` member, which must hold a JSON
    object. The result has every required key and each optional key whose
    member is present.

    Raises:
        MissingArchiveError: no file at path.
        MissingKeyError: a required member is absent.
        MalformedArchiveError: the container, a member or the meta member
            cannot be read.
    """
    if isinstance(path, (str, Path)) and not Path(path).is_file():
        raise MissingArchiveError(f"no archive at {path}")
    try:
        # the central directory is parsed here; corrupt bytes can surface as
        # BadZipFile, OSError, ValueError, struct.error or NotImplementedError
        zf = zipfile.ZipFile(path, "r")
    except Exception as exc:
        raise MalformedArchiveError(f"{path} is not a readable archive: {exc}") from None
    with zf:
        names = {}
        for name in zf.namelist():
            names["meta" if name == "meta.json" else name.removesuffix(".npy")] = name
        for key in required:
            if key not in names:
                raise MissingKeyError(key)
        out = {}
        for key in (*required, *(k for k in optional if k in names)):
            try:
                info = zf.getinfo(names[key])
                if info.file_size > _MAX_MEMBER:
                    raise MalformedArchiveError(f"member {key} declares an implausible size")
                payload = zf.read(info)
                out[key] = json.loads(payload.decode("utf-8")) if key == "meta" else read_array(payload)
            except WlclassError:
                raise
            except Exception as exc:  # zip payloads are attacker-controlled in fuzzing
                raise MalformedArchiveError(f"cannot read member {key} of {path}: {exc}") from None
    if not isinstance(out.get("meta", {}), dict):
        raise MalformedArchiveError(f"{path}: meta.json is not a JSON object")
    return out


def read_challenge_archive(path) -> ChallengeDataset:
    """Load a challenge archive (path or binary file-like) into a validated dataset.

    Float payloads are promoted to float64; labels are normalized to 0-based
    with the source convention recorded on the dataset.
    """
    arrays = read_bundle(path, ARCHIVE_KEYS)
    xs = {}
    for key in ("X_train", "X_test"):
        x = arrays[key]
        if x.dtype.kind != "f":
            raise DtypeMismatchError(f"{key} must be a float array, got {x.dtype}")
        if x.ndim != 3:
            raise ShapeMismatchError(f"{key} must be trials x samples x sensors")
        xs[key] = np.ascontiguousarray(x, dtype=np.float64)
    y_train, conv_train = _normalize_labels(arrays["y_train"], "y_train")
    y_test, conv_test = _normalize_labels(arrays["y_test"], "y_test")
    if conv_train != conv_test:
        raise LabelOutOfRangeError("train and test splits use different label conventions")
    dataset = ChallengeDataset(
        x_train=xs["X_train"],
        y_train=y_train,
        model_train=_names_to_table(arrays["model_train"], y_train, "model_train"),
        x_test=xs["X_test"],
        y_test=y_test,
        model_test=_names_to_table(arrays["model_test"], y_test, "model_test"),
        label_convention=conv_train,
    )
    for label in np.unique(dataset.y_test).tolist():
        if label < len(dataset.model_train):
            train_name = dataset.model_train[label]
            test_name = dataset.model_test[label] if label < len(dataset.model_test) else None
            if test_name is not None and train_name.lower() != test_name.lower():
                raise ShapeMismatchError(
                    f"label {label} named {train_name!r} in train but {test_name!r} in test"
                )
    return dataset.validate()


def _name_table_array(names: list[str]) -> np.ndarray:
    width = max([len(n.encode("utf-8")) for n in names], default=1)
    return np.array([n.encode("utf-8") for n in names], dtype=f"|S{max(width, 1)}")


def write_challenge_archive(dataset: ChallengeDataset, path) -> None:
    """Write a dataset as a stored (uncompressed) archive; read_challenge_archive inverts it."""
    dataset.validate()
    write_bundle(path, {
        "X_train": np.asarray(dataset.x_train, dtype=np.float64),
        "y_train": np.asarray(dataset.y_train, dtype=np.int64),
        "model_train": _name_table_array(dataset.model_train),
        "X_test": np.asarray(dataset.x_test, dtype=np.float64),
        "y_test": np.asarray(dataset.y_test, dtype=np.int64),
        "model_test": _name_table_array(dataset.model_test),
    })


_META_COLUMNS = ("job_id", "timestamp", "device_id", "label")


def ingest_raw_csv(path, nonfinite: str = "drop") -> list[RawTrial]:
    """Ingest delimited telemetry into one RawTrial per (job, device) group.

    The file must carry a header row naming job_id, timestamp, and exactly
    the GPU_SENSORS columns; device_id and label columns are optional.
    Rows are sorted by timestamp (stable, so input order breaks ties).
    Non-finite readings are dropped row-wise by default or forward-filled
    with ``nonfinite="ffill"``.
    """
    if nonfinite not in ("drop", "ffill"):
        raise SchemaMismatchError(f"unknown non-finite policy {nonfinite!r}")

    path = Path(path)
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise ArchiveIoError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        present_sensors = [h for h in header if h not in _META_COLUMNS]
        if set(present_sensors) != set(GPU_SENSORS) or len(present_sensors) != len(GPU_SENSORS):
            raise SchemaMismatchError(
                f"sensor columns {sorted(present_sensors)} do not match "
                f"the GPU sensors {sorted(GPU_SENSORS)}"
            )
        if "job_id" not in header or "timestamp" not in header:
            raise SchemaMismatchError("job_id and timestamp columns are required")
        col = {name: header.index(name) for name in header}
        sensor_idx = [col[s] for s in GPU_SENSORS]
        has_device = "device_id" in col
        has_label = "label" in col

        groups: dict[tuple[str, str], list] = {}
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            job = row[col["job_id"]].strip()
            device = row[col["device_id"]].strip() if has_device else ""
            try:
                ts = float(row[col["timestamp"]])
            except ValueError:
                raise SchemaMismatchError(f"bad timestamp {row[col['timestamp']]!r}") from None
            values = []
            for j in sensor_idx:
                cell = row[j].strip()
                try:
                    values.append(float(cell) if cell else float("nan"))
                except ValueError:
                    values.append(float("nan"))
            label = row[col["label"]].strip() if has_label else ""
            groups.setdefault((job, device), []).append((ts, values, label))

    if not groups:
        raise EmptyFileError(f"{path} has a header but no data rows")

    label_names = sorted({label for rows in groups.values() for _, _, label in rows if label})
    all_int = label_names and all(_is_int(v) for v in label_names)
    name_to_index = {name: i for i, name in enumerate(label_names)}

    trials = []
    for (job, device), rows in groups.items():
        rows.sort(key=lambda r: r[0])  # stable: ties keep input order
        series = np.array([r[1] for r in rows], dtype=np.float64)
        series = _apply_nonfinite_policy(series, nonfinite)
        if series.shape[0] == 0:
            continue
        row_label = next((r[2] for r in rows if r[2]), "")
        if not row_label:
            label, label_name = None, None
        elif all_int:
            label, label_name = int(row_label), None
        else:
            label, label_name = name_to_index[row_label], row_label
        trials.append(
            RawTrial(
                job_id=job,
                label=label,
                series=series,
                label_name=label_name,
                device_id=device,
            )
        )
    if not trials:
        raise EmptyFileError(f"{path} contains no usable trials after filtering")
    trials.sort(key=lambda t: (t.job_id, t.device_id))
    return trials


def _is_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def _apply_nonfinite_policy(series: np.ndarray, policy: str) -> np.ndarray:
    finite = np.isfinite(series)
    if finite.all():
        return series
    if policy == "drop":
        return series[finite.all(axis=1)]
    # forward fill per sensor; rows before the first finite value are dropped
    out = series.copy()
    for j in range(out.shape[1]):
        column = out[:, j]
        mask = np.isfinite(column)
        if not mask.any():
            return out[:0]
        idx = np.where(mask, np.arange(len(column)), 0)
        np.maximum.accumulate(idx, out=idx)
        out[:, j] = column[idx]
    first_full = np.where(np.isfinite(out).all(axis=1))[0]
    start = first_full[0] if len(first_full) else len(out)
    return out[start:]
