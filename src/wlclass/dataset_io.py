"""Reading and writing of the challenge's array-archive format plus raw telemetry ingestion.

The distribution format is a zip container whose members are ``.npy``
arrays: magic ``\\x93NUMPY``, a one-byte major/minor version, a little-endian
header length, then an ASCII dict with keys ``descr``/``fortran_order``/``shape``
followed by the raw payload. numpy's ``np.lib.format`` reads and writes
that header; this module enforces the dtype whitelist and the exact
payload length around it and turns every failure into a typed error, so
arbitrary byte input never crashes. Feature sets, reduction bundles and
model files are the same kind of zip plus a JSON meta member;
write_bundle and read_bundle are the one codec for all four.

Raw telemetry arrives as delimited text, one row per timestamped sample,
grouped by job (and device, for multi-GPU jobs).
"""

import array
import csv
import io
import json
import math
import operator
import warnings
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
    UsageError,
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

_MAX_NDIM = 32
_MAX_HEADER = 1 << 20
# format version -> (numpy's header reader, offset of the header dict)
_HEADER_READERS = {
    (1, 0): (np.lib.format.read_array_header_1_0, 10),
    (2, 0): (np.lib.format.read_array_header_2_0, 12),
}


def parse_array_header(data: bytes) -> tuple[np.dtype, tuple[int, ...], bool, int]:
    """Parse a serialized-array header from raw bytes.

    Returns (dtype, shape, fortran_order, offset), the payload starting at
    offset. numpy's header reader parses the dict. Around it, the magic and
    version are checked first, and what numpy would accept or silently
    repair is refused: any numpy warning, a non-ASCII header, a bool or
    negative extent, more than 32 axes, a dtype other than f4/f8/i4/i8 or
    non-empty S/U strings, and a payload that is not exactly the shape's
    size.

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
    if version not in _HEADER_READERS:
        raise UnsupportedVersionError(f"version {version[0]}.{version[1]}")
    read_header, header_start = _HEADER_READERS[version]
    fp = io.BytesIO(data)
    fp.seek(8)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns where it repairs a header
            shape, fortran_order, dtype = read_header(fp, max_header_size=_MAX_HEADER)
    except Exception as exc:  # header bytes are untrusted; literal_eval can raise anything
        raise MalformedHeaderError(f"header is unreadable: {exc}") from None
    offset = fp.tell()
    if not data[header_start:offset].isascii():
        raise MalformedHeaderError("header is not ASCII")
    if len(shape) > _MAX_NDIM or any(isinstance(d, bool) or d < 0 for d in shape):
        raise MalformedHeaderError(f"bad shape {shape!r}")
    if not (dtype.kind in "fi" and dtype.itemsize in (4, 8)
            or dtype.kind in "SU" and dtype.itemsize > 0):
        raise UnsupportedDtypeError(f"unsupported dtype {dtype}")
    payload_nbytes = math.prod(shape) * dtype.itemsize
    if len(data) - offset != payload_nbytes:
        raise MalformedHeaderError(
            f"payload is {len(data) - offset} bytes, shape {shape} needs {payload_nbytes}"
        )
    return dtype, shape, fortran_order, offset


def read_array(data: bytes) -> np.ndarray:
    """Deserialize one array from raw member bytes, as a read-only view of them."""
    data = bytes(data)
    dtype, shape, fortran_order, offset = parse_array_header(data)
    arr = np.frombuffer(data, dtype=dtype, offset=offset)
    return arr.reshape(shape, order="F" if fortran_order else "C")


def write_array(arr: np.ndarray) -> bytes:
    """Serialize a float32/64, int32/64 or bytes array to format-1.0 bytes,
    little-endian and row-major, with numpy's own 64-byte aligned header."""
    arr = np.asarray(arr, order="C")
    kind, itemsize = arr.dtype.kind, arr.dtype.itemsize
    if not (kind in "fi" and itemsize in (4, 8) or kind == "S"):
        raise UnsupportedDtypeError(f"cannot serialize dtype {arr.dtype}")
    out = io.BytesIO()
    np.lib.format.write_array(out, arr.astype(arr.dtype.newbyteorder("<"), copy=False),
                              version=(1, 0), allow_pickle=False)
    return out.getvalue()


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
    label_convention: str = "0-based"  # convention found in the source archive

    def validate(self) -> "ChallengeDataset":
        if self.x_train.ndim != 3 or self.x_test.ndim != 3:
            raise ShapeMismatchError("X arrays must be trials x samples x sensors")
        if self.x_train.shape[1] != self.x_test.shape[1]:
            raise ShapeMismatchError(
                f"sample counts differ: {self.x_train.shape[1]} vs {self.x_test.shape[1]}"
            )
        n_sensors = len(GPU_SENSORS)
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

    def equal(self, other: "ChallengeDataset") -> bool:
        return (
            np.array_equal(self.x_train, other.x_train)
            and np.array_equal(self.y_train, other.y_train)
            and np.array_equal(self.x_test, other.x_test)
            and np.array_equal(self.y_test, other.y_test)
            and self.model_train == other.model_train
            and self.model_test == other.model_test
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


def spell_nonfinite(value):
    """value with every non-finite float, in nested dicts too, spelled as
    text ("inf", "-inf", "nan"), since JSON has none of them: a GBT gamma
    of inf ("never split") reaches model files and manifests this way."""
    if isinstance(value, dict):
        return {key: spell_nonfinite(item) for key, item in value.items()}
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def write_bundle(path, arrays: dict, meta: dict | None = None) -> None:
    """Write a zip bundle (path or binary file-like): one stored `<key>.npy`
    member per array in the given order, then `meta.json` holding the
    canonical JSON of meta when given. Every member carries the same fixed
    timestamp, so equal content gives equal bytes. Members are serialized
    one at a time, so at most one payload copy exists at once. A meta that
    canonical JSON cannot encode is a UsageError, and nothing is written.
    """
    try:
        text = None if meta is None else canonical_json(meta)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"cannot write {path}: meta is not JSON: {exc}") from None

    def put(zf, name, payload):
        info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_STORED
        zf.writestr(info, payload)

    try:
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
            for key, arr in arrays.items():
                put(zf, f"{key}.npy", write_array(arr))
            if text is not None:
                put(zf, "meta.json", text.encode("utf-8"))
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

#: Rows whose readings are held as Python floats before they move into one
#: float64 block, which bounds that list's per-float overhead.
_BLOCK_ROWS = 8192


def ingest_raw_csv(path, nonfinite: str = "drop") -> list[RawTrial]:
    """Ingest delimited telemetry into one RawTrial per (job, device) group.

    The file must carry a header row naming job_id, timestamp, and exactly
    the GPU_SENSORS columns; device_id and label columns are optional.
    Rows are sorted by timestamp, and tied timestamps keep file order. An
    empty or unparseable reading counts as missing (NaN); such rows are
    dropped by default or forward-filled with ``nonfinite="ffill"``. A
    group's label is its first non-empty label in time order. Memory is
    about 7 float64 readings per row. A row with fewer fields than the
    header or a timestamp that is not a finite number, bytes that are not
    UTF-8 and text the csv module cannot parse (such as an unterminated
    quote running past its field size limit) raise SchemaMismatchError
    naming the line; extra fields are ignored.
    """
    if nonfinite not in ("drop", "ffill"):
        raise SchemaMismatchError(f"unknown non-finite policy {nonfinite!r}")

    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ArchiveIoError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            keys, codes, ts, values, labels = _csv_columns(reader, path)
        except (IndexError, UnicodeDecodeError, csv.Error) as exc:
            problem = "fewer fields than the header" if isinstance(exc, IndexError) else exc
            raise SchemaMismatchError(f"{path} line {reader.line_num}: {problem}") from None

    if not keys:
        raise EmptyFileError(f"{path} has a header but no data rows")

    label_names = sorted(filter(None, set(labels)))
    all_int = label_names and _integer_coded(label_names)
    name_to_index = {name: i for i, name in enumerate(label_names)}

    order = np.lexsort((ts, codes))  # stable: ties keep file order
    bounds = np.searchsorted(codes[order], np.arange(len(keys) + 1))
    trials = []
    for code, (job, device) in enumerate(keys):
        rows = order[bounds[code]:bounds[code + 1]]
        series = _apply_nonfinite_policy(values[rows], nonfinite)
        if series.shape[0] == 0:
            continue
        row_label = next((labels[r] for r in rows.tolist() if labels[r]), "")
        if not row_label:
            label, label_name = None, None
        elif all_int:
            label, label_name = int(row_label), None
        else:
            label, label_name = name_to_index[row_label], row_label
        trials.append(RawTrial(job_id=job, label=label, series=series,
                               label_name=label_name, device_id=device))
    if not trials:
        raise EmptyFileError(f"{path} contains no usable trials after filtering")
    trials.sort(key=lambda t: (t.job_id, t.device_id))
    return trials


def _csv_columns(reader, path) -> tuple:
    """One pass over the rows: the (job, device) keys in first-seen order, then
    per row its key's code, timestamp, readings (an n x 7 array) and label."""
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
    job_col, ts_col = col["job_id"], col["timestamp"]
    device_col, label_col = col.get("device_id"), col.get("label")
    readings = operator.itemgetter(*(col[s] for s in GPU_SENSORS))
    block_len = len(GPU_SENSORS) * _BLOCK_ROWS

    index: dict[tuple[str, str], int] = {}
    label_text: dict[str, str] = {}  # one string object per distinct label
    codes, ts, labels, blocks, flat = [], array.array("d"), [], [], []
    for row in reader:
        if not "".join(row).strip():
            continue
        key = (row[job_col].strip(), row[device_col].strip() if device_col is not None else "")
        codes.append(index.setdefault(key, len(index)))
        try:
            t = float(row[ts_col])
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise SchemaMismatchError(f"{path} line {reader.line_num}: bad timestamp {row[ts_col]!r}")
        ts.append(t)
        cells = readings(row)
        start = len(flat)
        try:
            flat.extend(map(float, cells))
        except ValueError:  # an empty or unparseable cell is a missing reading
            del flat[start:]
            for cell in cells:
                try:
                    flat.append(float(cell))
                except ValueError:
                    flat.append(math.nan)
        label = row[label_col].strip() if label_col is not None else ""
        labels.append(label_text.setdefault(label, label))
        if len(flat) == block_len:
            blocks.append(np.array(flat, dtype=np.float64))
            flat.clear()
    blocks.append(np.array(flat, dtype=np.float64))
    values = np.concatenate(blocks).reshape(-1, len(GPU_SENSORS))
    return list(index), np.array(codes, dtype=np.int64), np.asarray(ts), values, labels


def _integer_coded(names) -> bool:
    """Whether the distinct labels `names` are integers: ASCII digits only
    (not 1_0, +10 or -3), and no two naming the same integer (010 and 10)."""
    return (all(v.isascii() and v.isdecimal() for v in names)
            and len({int(v) for v in names}) == len(names))


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
