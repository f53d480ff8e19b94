import csv
import hashlib
import io
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from wlclass.cli import (
    main,
    read_feature_set,
    read_reduction_bundle,
    write_feature_set,
    write_reduction_bundle,
)
from wlclass import dataset_io
from wlclass.dataset_io import (
    ChallengeDataset,
    GPU_SENSORS,
    RawTrial,
    _apply_nonfinite_policy,
    _integer_coded,
    ingest_raw_csv,
    parse_array_header,
    read_array,
    read_challenge_archive,
    write_array,
    write_challenge_archive,
)
from wlclass.errors import (
    BadMagicError,
    DataError,
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
from wlclass.model_selection import ReductionSpec, fit_reduction


def reference_bytes(arr, version=None):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr), version=version)
    return buf.getvalue()


def raw_npy(descr, shape, payload_nbytes, comment=""):
    """Format-1.0 bytes with a hand-written header dict and a zero payload."""
    header = f"{{'descr': {descr}, 'fortran_order': False, 'shape': {shape}, }}{comment}"
    header = header + " " * (-(10 + len(header) + 1) % 64) + "\n"
    return (b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
            + header.encode("latin-1") + bytes(payload_nbytes))


class TestHeaderParseAgainstReference:
    """Field-by-field comparison with the reference serializer's own reader."""

    def test_fields_match_reference_across_dtypes_and_shapes(self):
        rng = np.random.default_rng(7)
        dtypes = ["<f8", "<f4", "<i8", "<i4", "|S5", "<U9"]
        shapes = [(), (0,), (1,), (5,), (3, 4), (2, 3, 4), (1, 1, 1, 2)]
        for dtype in dtypes:
            for shape in shapes:
                if dtype[1:2] in ("S", "U"):
                    arr = np.full(shape, "abc", dtype=dtype)
                else:
                    arr = rng.integers(-50, 50, size=shape).astype(dtype)
                raw = reference_bytes(arr)
                got_dtype, got_shape, got_fortran, offset = parse_array_header(raw)

                buf = io.BytesIO(raw)
                np.lib.format.read_magic(buf)
                ref_shape, ref_fortran, ref_dtype = np.lib.format.read_array_header_1_0(buf)
                assert got_shape == ref_shape
                assert got_fortran == ref_fortran
                assert got_dtype == ref_dtype
                assert offset == buf.tell()
                assert math.prod(got_shape) * got_dtype.itemsize == len(raw) - offset

    def test_version_two_headers_parse(self):
        arr = np.arange(12.0).reshape(3, 4)
        raw = reference_bytes(arr, version=(2, 0))
        dtype, shape, _, _ = parse_array_header(raw)
        assert shape == (3, 4)
        assert dtype == np.float64
        np.testing.assert_array_equal(read_array(raw), arr)

    def test_fortran_order_payload(self):
        arr = np.asfortranarray(np.arange(20.0).reshape(4, 5))
        raw = reference_bytes(arr)
        _, _, fortran_order, _ = parse_array_header(raw)
        assert fortran_order
        np.testing.assert_array_equal(read_array(raw), arr)

    def test_big_endian_payload(self):
        arr = np.arange(6, dtype=">i4").reshape(2, 3)
        raw = reference_bytes(arr)
        dtype, _, _, _ = parse_array_header(raw)
        assert dtype.byteorder == ">"
        np.testing.assert_array_equal(read_array(raw), arr)

    def test_header_longer_than_127_bytes(self):
        arr = np.arange(2.0).reshape((1,) * 19 + (2,))
        raw = reference_bytes(arr)
        assert raw[8] > 127
        np.testing.assert_array_equal(read_array(raw), arr)

    def test_descr_without_byte_order_reads_as_native(self):
        np.testing.assert_array_equal(read_array(raw_npy("'f8'", "(2,)", 16)), np.zeros(2))


class TestWriteArray:
    def test_reference_loader_reads_our_bytes(self):
        rng = np.random.default_rng(11)
        for arr in [
            rng.normal(size=(6, 3)),
            rng.integers(0, 9, size=(7,)).astype(np.int32),
            np.array([b"vgg", b"bert"], dtype="|S4"),
            np.float32(rng.normal(size=(2, 2, 2))),
        ]:
            raw = write_array(arr)
            loaded = np.load(io.BytesIO(raw))
            np.testing.assert_array_equal(loaded, arr)
            assert loaded.dtype == np.asarray(arr).dtype

    def test_round_trip_through_own_reader(self):
        arr = np.random.default_rng(3).normal(size=(4, 9))
        np.testing.assert_array_equal(read_array(write_array(arr)), arr)

    def test_header_is_aligned(self):
        for shape in [(1,), (100,), (3, 3, 3)]:
            raw = write_array(np.zeros(shape))
            *_, offset = parse_array_header(raw)
            assert offset % 64 == 0

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(UnsupportedDtypeError):
            write_array(np.array([1 + 2j, 3 + 4j]))

    def test_zero_dimensional_round_trip(self):
        restored = read_array(write_array(np.array(3.0)))
        assert restored.shape == () and restored == 3.0

    def test_bytes_are_the_reference_serializers(self):
        rng = np.random.default_rng(5)
        for dtype in ["<f8", "<f4", "<i8", "<i4", "|S6"]:
            for shape in [(5,), (3, 4, 7), (2, 3), (0, 3), (1, 1, 1, 1, 1)]:
                arr = rng.integers(-50, 50, size=shape).astype(dtype)
                assert write_array(arr) == reference_bytes(arr, version=(1, 0))
        big_endian = np.arange(6, dtype=">f8").reshape(2, 3)
        assert write_array(big_endian) == reference_bytes(big_endian.astype("<f8"))
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        assert write_array(fortran) == reference_bytes(np.ascontiguousarray(fortran))


class TestMalformedInputs:
    """Arbitrary bytes must yield typed errors, never stray exceptions."""

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            parse_array_header(b"NOTNPY" + b"\x00" * 20)

    def test_unsupported_version(self):
        raw = bytearray(reference_bytes(np.zeros(3)))
        raw[6:8] = bytes((3, 0))
        with pytest.raises(UnsupportedVersionError):
            parse_array_header(bytes(raw))

    def test_truncation_at_every_prefix(self):
        raw = reference_bytes(np.arange(5.0))
        for cut in range(len(raw)):
            with pytest.raises(DataError):
                parse_array_header(raw[:cut])

    def test_header_code_is_data_not_code(self):
        payload = b"\x00" * 8
        header = "__import__('os').getpid()"
        header = header + " " * (-(10 + len(header) + 1) % 64) + "\n"
        raw = (
            b"\x93NUMPY\x01\x00"
            + len(header).to_bytes(2, "little")
            + header.encode()
            + payload
        )
        with pytest.raises(MalformedHeaderError):
            parse_array_header(raw)

    def test_object_dtype_rejected(self):
        header = "{'descr': '|O8', 'fortran_order': False, 'shape': (1,), }"
        header = header + " " * (-(10 + len(header) + 1) % 64) + "\n"
        raw = (
            b"\x93NUMPY\x01\x00"
            + len(header).to_bytes(2, "little")
            + header.encode()
            + b"\x00" * 8
        )
        with pytest.raises(UnsupportedDtypeError):
            parse_array_header(raw)

    def test_payload_shape_mismatch(self):
        raw = bytearray(reference_bytes(np.zeros(4)))
        with pytest.raises(MalformedHeaderError):
            parse_array_header(bytes(raw[:-8]) + b"")

    def test_seeded_mutation_fuzz(self):
        rng = np.random.default_rng(2024)
        base = reference_bytes(np.arange(12.0).reshape(3, 4))
        for _ in range(600):
            raw = bytearray(base)
            for _ in range(rng.integers(1, 5)):
                raw[rng.integers(0, len(raw))] = rng.integers(0, 256)
            try:
                dtype, shape, _, offset = parse_array_header(bytes(raw))
            except WlclassError:
                continue
            assert len(raw) - offset == math.prod(shape) * dtype.itemsize

    @pytest.mark.parametrize("raw, expected", [
        pytest.param(reference_bytes(np.zeros(4)) + b"\x00", MalformedHeaderError,
                     id="trailing-byte"),
        pytest.param(raw_npy("'<f8'", "(True,)", 8), MalformedHeaderError, id="bool-axis"),
        pytest.param(raw_npy("'<f8'", "(-1,)", 0), MalformedHeaderError, id="negative-axis"),
        pytest.param(raw_npy("'<f8'", "(" + "1, " * 33 + ")", 8), MalformedHeaderError,
                     id="33-axes"),
        pytest.param(raw_npy("'<f8'", "(3L,)", 24), MalformedHeaderError, id="python2-long"),
        pytest.param(raw_npy("'<f8'", "(1,)", 8, comment=" # \xe9"), MalformedHeaderError,
                     id="non-ascii-comment"),
        pytest.param(raw_npy("'<u8'", "(1,)", 8), UnsupportedDtypeError, id="u8"),
        pytest.param(raw_npy("'<f2'", "(1,)", 2), UnsupportedDtypeError, id="f2"),
        pytest.param(raw_npy("'|S0'", "(1,)", 0), UnsupportedDtypeError, id="S0"),
        pytest.param(raw_npy("'<U0'", "(1,)", 0), UnsupportedDtypeError, id="U0"),
        pytest.param(raw_npy("[('a', '<f8')]", "(1,)", 8), UnsupportedDtypeError,
                     id="structured"),
    ])
    def test_refusals_are_typed_and_silent(self, raw, expected):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(expected) as raised:
                read_array(raw)
        assert raised.type is expected
        assert caught == []

    def test_random_garbage_fuzz(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(0, 200))
            blob = rng.integers(0, 256, size=n).astype(np.uint8).tobytes()
            with pytest.raises(WlclassError):
                parse_array_header(blob)


def small_dataset(one_based=False, names_per_trial=False, n_classes=3):
    rng = np.random.default_rng(5)
    class_names = [f"net{i}" for i in range(n_classes)]
    y_train = np.repeat(np.arange(n_classes), 4).astype(np.int64)
    y_test = np.repeat(np.arange(n_classes), 2).astype(np.int64)
    x_train = rng.normal(size=(len(y_train), 10, 7))
    x_test = rng.normal(size=(len(y_test), 10, 7))
    if names_per_trial:
        model_train = [class_names[i] for i in y_train]
        model_test = [class_names[i] for i in y_test]
    else:
        model_train = model_test = class_names
    if one_based:
        y_train = y_train + 1
        y_test = y_test + 1
    return x_train, y_train, model_train, x_test, y_test, model_test


def datasets_equal(a, b):
    """Every field of two ChallengeDatasets equal: four arrays, two name tables."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _write_archive(target):
    x_train, y_train, names, x_test, y_test, _ = small_dataset()
    write_challenge_archive(ChallengeDataset(x_train, y_train, names, x_test, y_test, names),
                            target)


def _write_cov_feature_set(target):
    x_train, y_train, names, x_test, y_test, _ = small_dataset()
    reduction, features_train = fit_reduction(ReductionSpec("cov"), x_train)
    write_feature_set(target, features_train, y_train,
                      reduction.transform(x_test), y_test,
                      {"reduction": "cov", "class_names": names})


def _write_pca_reduction_bundle(target):
    x_train, *_ = small_dataset()
    write_reduction_bundle(target, fit_reduction(ReductionSpec("pca", k=4), x_train)[0])


#: Every zip artifact the package writes: (writer to a file-like, reader).
ZIP_ARTIFACTS = {
    "archive": (_write_archive, read_challenge_archive),
    "cov-feature-set": (_write_cov_feature_set, read_feature_set),
    "pca-reduction-bundle": (_write_pca_reduction_bundle, read_reduction_bundle),
}


def test_meta_json_cannot_encode_is_usage_and_writes_nothing(tmp_path):
    path = tmp_path / "bundle.npz"
    for meta in ({"C": float("inf")}, {"gap": float("nan")}, {"seed": np.int64(3)},
                 {"arr": np.zeros(2)}):
        with pytest.raises(UsageError, match="meta is not JSON"):
            dataset_io.write_bundle(path, {"a": np.zeros(2)}, meta)
        assert not path.exists()


class TestChallengeArchive:
    def test_round_trip_preserves_everything(self, tmp_path):
        x_train, y_train, names, x_test, y_test, _ = small_dataset()
        ds = ChallengeDataset(x_train, y_train, names, x_test, y_test, names)
        path = tmp_path / "bundle.npz"
        write_challenge_archive(ds, path)
        back = read_challenge_archive(path)
        assert datasets_equal(back, ds)

    def test_write_is_deterministic(self, tmp_path):
        x_train, y_train, names, x_test, y_test, _ = small_dataset()
        ds = ChallengeDataset(x_train, y_train, names, x_test, y_test, names)
        digests = []
        for name in ("a.npz", "b.npz"):
            path = tmp_path / name
            write_challenge_archive(ds, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_reads_reference_writer_output(self, tmp_path):
        x_train, y_train, names, x_test, y_test, _ = small_dataset()
        path = tmp_path / "ref.npz"
        np.savez(
            path,
            X_train=x_train,
            y_train=y_train,
            model_train=np.array(names),
            X_test=x_test,
            y_test=y_test,
            model_test=np.array(names),
        )
        ds = read_challenge_archive(path)
        np.testing.assert_array_equal(ds.x_train, x_train)
        np.testing.assert_array_equal(ds.y_test, y_test)
        assert ds.model_train == names

    def test_one_based_labels_normalized(self, tmp_path):
        x_train, y_train, names, x_test, y_test, _ = small_dataset(n_classes=26, one_based=True)
        path = tmp_path / "onebased.npz"
        np.savez(
            path,
            X_train=x_train,
            y_train=y_train,
            model_train=np.array(names),
            X_test=x_test,
            y_test=y_test,
            model_test=np.array(names),
        )
        ds = read_challenge_archive(path)
        assert ds.y_train.min() == 0 and ds.y_train.max() == 25
        np.testing.assert_array_equal(ds.y_train, y_train - 1)

    def test_per_trial_names_become_table(self, tmp_path):
        x_train, y_train, model_train, x_test, y_test, model_test = small_dataset(
            names_per_trial=True
        )
        path = tmp_path / "pertrial.npz"
        np.savez(
            path,
            X_train=x_train,
            y_train=y_train,
            model_train=np.array(model_train),
            X_test=x_test,
            y_test=y_test,
            model_test=np.array(model_test),
        )
        ds = read_challenge_archive(path)
        assert ds.model_train == ["net0", "net1", "net2"]
        assert ds.model_test == ["net0", "net1", "net2"]

    def test_missing_member(self, tmp_path):
        x_train, y_train, names, x_test, y_test, _ = small_dataset()
        path = tmp_path / "missing.npz"
        np.savez(path, X_train=x_train, y_train=y_train, model_train=np.array(names))
        with pytest.raises(MissingKeyError) as err:
            read_challenge_archive(path)
        assert err.value.key in ("X_test", "y_test", "model_test")

    def test_label_out_of_range(self, tmp_path):
        x_train, y_train, names, x_test, y_test, _ = small_dataset()
        y_train = y_train.copy()
        y_train[0] = 80
        path = tmp_path / "range.npz"
        np.savez(
            path,
            X_train=x_train,
            y_train=y_train,
            model_train=np.array(names),
            X_test=x_test,
            y_test=y_test,
            model_test=np.array(names),
        )
        with pytest.raises(LabelOutOfRangeError):
            read_challenge_archive(path)

    def test_float_labels_rejected(self, tmp_path):
        x_train, y_train, names, x_test, y_test, _ = small_dataset()
        path = tmp_path / "floaty.npz"
        np.savez(
            path,
            X_train=x_train,
            y_train=y_train.astype(np.float64),
            model_train=np.array(names),
            X_test=x_test,
            y_test=y_test,
            model_test=np.array(names),
        )
        with pytest.raises(DtypeMismatchError):
            read_challenge_archive(path)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip container")
        with pytest.raises(MalformedArchiveError):
            read_challenge_archive(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArchiveError):
            read_challenge_archive(tmp_path / "nope.npz")

    def test_file_like_input(self, tmp_path):
        x_train, y_train, names, x_test, y_test, _ = small_dataset()
        ds = ChallengeDataset(x_train, y_train, names, x_test, y_test, names)
        buf = io.BytesIO()
        write_challenge_archive(ds, buf)
        buf.seek(0)
        assert datasets_equal(read_challenge_archive(buf), ds)

    @pytest.mark.parametrize("artifact", sorted(ZIP_ARTIFACTS))
    def test_corrupt_member_fuzz(self, artifact):
        write, read = ZIP_ARTIFACTS[artifact]
        buf = io.BytesIO()
        write(buf)
        base = buf.getvalue()
        read(io.BytesIO(base))
        # 120 mutants anywhere, then 120 confined to the central directory
        directory = int.from_bytes(base[-6:-2], "little")
        rng = np.random.default_rng(13)
        for start in [0] * 120 + [directory] * 120:
            raw = bytearray(base)
            for _ in range(rng.integers(1, 6)):
                raw[rng.integers(start, len(raw))] = rng.integers(0, 256)
            try:
                read(io.BytesIO(bytes(raw)))
            except WlclassError:
                pass

    def test_mismatched_sample_counts(self):
        x_train, y_train, names, x_test, y_test, _ = small_dataset()
        with pytest.raises(ShapeMismatchError):
            ChallengeDataset(
                x_train, y_train, names, x_test[:, :5, :], y_test, names
            ).validate()

    @pytest.mark.parametrize("n_classes,per_trial,mutate,error,match", [
        (3, False, lambda m: {"X_train": m["X_train"].astype(np.int64)},
         DtypeMismatchError, "X_train must be a float array"),
        (3, False, lambda m: {"X_test": m["X_test"].reshape(len(m["X_test"]), -1)},
         ShapeMismatchError, "X_test must be trials x samples x sensors"),
        (26, False, lambda m: {"y_test": m["y_test"] + 1},
         LabelOutOfRangeError, "different label conventions"),
        (3, False, lambda m: {"model_test": np.array(["net0", "resnet", "net2"])},
         ShapeMismatchError, "label 1 named 'net1' in train but 'resnet' in test"),
        (3, True, lambda m: {"model_train": np.array(["net0", "other", *m["model_train"][2:]])},
         ShapeMismatchError, "model_train maps label 0 to both 'net0' and 'other'"),
        (3, False, lambda m: {"X_train": m["X_train"][:, :, :6], "X_test": m["X_test"][:, :, :6]},
         ShapeMismatchError, "trailing dimension must be 7"),
        (3, False, lambda m: {"y_train": m["y_train"][:-1]},
         ShapeMismatchError, "train labels do not align with trials"),
        (3, False, lambda m: {"model_train": m["model_train"][:2]},
         ShapeMismatchError, "train name table is shorter than the label range"),
    ], ids=["integer-x", "2d-x", "mixed-label-conventions", "test-names-disagree",
            "one-label-two-names", "six-sensors", "labels-not-aligned", "short-name-table"])
    def test_crafted_archive_refusals(self, tmp_path, n_classes, per_trial, mutate, error,
                                      match):
        """Each typed refusal of read_challenge_archive, reached from one
        written archive that differs from a valid one in one respect."""
        x_train, y_train, model_train, x_test, y_test, model_test = small_dataset(
            n_classes=n_classes, names_per_trial=per_trial)
        members = {"X_train": x_train, "y_train": y_train, "model_train": np.array(model_train),
                   "X_test": x_test, "y_test": y_test, "model_test": np.array(model_test)}
        path = tmp_path / "crafted.npz"
        np.savez(path, **{**members, **mutate(members)})
        with pytest.raises(error, match=re.escape(match)):
            read_challenge_archive(path)


def reference_ingest(path, nonfinite="drop"):
    """The row-by-row reader that ingest_raw_csv replaced: one (timestamp,
    readings, label) tuple per row in a dict of groups, each group sorted
    with list.sort. It raises what the old reader raised, and returns None
    where a row's timestamp is not finite, which the old reader accepted
    and ingest_raw_csv refuses."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyFileError(path) from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaMismatchError(exc) from None
        sensors = [h for h in header if h not in ("job_id", "timestamp", "device_id", "label")]
        if sorted(sensors) != sorted(GPU_SENSORS) or not {"job_id", "timestamp"} <= set(header):
            raise SchemaMismatchError(header)
        col = {name: header.index(name) for name in header}
        groups = {}
        try:
            for row in reader:
                if not row or all(not c.strip() for c in row):
                    continue
                job = row[col["job_id"]].strip()
                device = row[col["device_id"]].strip() if "device_id" in col else ""
                try:
                    ts = float(row[col["timestamp"]])
                except ValueError:
                    raise SchemaMismatchError(row) from None
                values = []
                for j in [col[s] for s in GPU_SENSORS]:
                    cell = row[j].strip()
                    try:
                        values.append(float(cell) if cell else float("nan"))
                    except ValueError:
                        values.append(float("nan"))
                label = row[col["label"]].strip() if "label" in col else ""
                groups.setdefault((job, device), []).append((ts, values, label))
        except (IndexError, UnicodeDecodeError, csv.Error) as exc:
            raise SchemaMismatchError(exc) from None
    if not groups:
        raise EmptyFileError(path)
    if not all(math.isfinite(r[0]) for rows in groups.values() for r in rows):
        return None
    label_names = sorted({label for rows in groups.values() for _, _, label in rows if label})
    all_int = label_names and _integer_coded(label_names)
    trials = []
    for (job, device), rows in groups.items():
        rows.sort(key=lambda r: r[0])
        series = np.array([r[1] for r in rows], dtype=np.float64)
        series = _apply_nonfinite_policy(series, nonfinite)
        if series.shape[0] == 0:
            continue
        name = next((r[2] for r in rows if r[2]), "")
        label = None if not name else int(name) if all_int else label_names.index(name)
        trials.append(RawTrial(job, label, series, name if name and not all_int else None, device))
    if not trials:
        raise EmptyFileError(path)
    return sorted(trials, key=lambda t: (t.job_id, t.device_id))


def trial_fields(trials):
    return [(t.job_id, t.device_id, t.label, t.label_name, t.series.tobytes()) for t in trials]


def assert_matches_reference(path):
    """Under both non-finite policies, ingest_raw_csv returns the reference's
    trials or raises the reference's error type."""
    for nonfinite in ("drop", "ffill"):
        try:
            expected = reference_ingest(path, nonfinite)
        except WlclassError as exc:
            with pytest.raises(type(exc)):
                ingest_raw_csv(path, nonfinite)
            continue
        if expected is None:
            with pytest.raises(SchemaMismatchError, match="bad timestamp"):
                ingest_raw_csv(path, nonfinite)
            continue
        assert trial_fields(ingest_raw_csv(path, nonfinite)) == trial_fields(expected)


class TestCsvIngest:
    HEADER = "job_id,timestamp,device_id,label," + ",".join(GPU_SENSORS)

    def write(self, tmp_path, rows, header=None):
        path = tmp_path / "telemetry.csv"
        path.write_text("\n".join([header or self.HEADER, *rows]) + "\n")
        return path

    def row(self, job, ts, device="0", label="vgg", values=None):
        values = values if values is not None else [1, 2, 3, 4, 5, 6, 7]
        return f"{job},{ts},{device},{label}," + ",".join(str(v) for v in values)

    def test_groups_by_job_and_device(self, tmp_path):
        rows = [
            self.row("j1", 0, device="0"),
            self.row("j1", 1, device="0"),
            self.row("j1", 0, device="1"),
            self.row("j2", 0, device="0", label="bert"),
        ]
        trials = ingest_raw_csv(self.write(tmp_path, rows))
        assert [(t.job_id, t.device_id, t.n_samples) for t in trials] == [
            ("j1", "0", 2),
            ("j1", "1", 1),
            ("j2", "0", 1),
        ]
        assert trials[0].label_name == "vgg"
        assert trials[3 - 1].label_name == "bert"
        assert {t.label for t in trials} == {0, 1}

    def test_rows_sorted_by_timestamp(self, tmp_path):
        rows = [
            self.row("j1", 5, values=[5] * 7),
            self.row("j1", 1, values=[1] * 7),
            self.row("j1", 3, values=[3] * 7),
        ]
        trials = ingest_raw_csv(self.write(tmp_path, rows))
        np.testing.assert_array_equal(trials[0].series[:, 0], [1, 3, 5])

    def test_missing_sensor_column(self, tmp_path):
        header = "job_id,timestamp," + ",".join(GPU_SENSORS[:-1])
        rows = ["j1,0," + ",".join("1" for _ in GPU_SENSORS[:-1])]
        with pytest.raises(SchemaMismatchError):
            ingest_raw_csv(self.write(tmp_path, rows, header=header))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyFileError):
            ingest_raw_csv(path)

    def test_header_without_rows(self, tmp_path):
        with pytest.raises(EmptyFileError):
            ingest_raw_csv(self.write(tmp_path, []))

    def test_nonfinite_drop(self, tmp_path):
        rows = [
            self.row("j1", 0, values=[1] * 7),
            self.row("j1", 1, values=["", 2, 2, 2, 2, 2, 2]),
            self.row("j1", 2, values=[3] * 7),
        ]
        trials = ingest_raw_csv(self.write(tmp_path, rows))
        assert trials[0].n_samples == 2
        np.testing.assert_array_equal(trials[0].series[:, 0], [1, 3])

    def test_nonfinite_ffill(self, tmp_path):
        rows = [
            self.row("j1", 0, values=[1] * 7),
            self.row("j1", 1, values=["nan", 2, 2, 2, 2, 2, 2]),
        ]
        trials = ingest_raw_csv(self.write(tmp_path, rows), nonfinite="ffill")
        assert trials[0].n_samples == 2
        assert trials[0].series[1, 0] == 1.0
        assert trials[0].series[1, 1] == 2.0

    def test_ffill_drops_leading_gap_rows(self, tmp_path):
        rows = [
            self.row("j1", 0, values=["nan", 1, 1, 1, 1, 1, 1]),
            self.row("j1", 1, values=[2] * 7),
        ]
        trials = ingest_raw_csv(self.write(tmp_path, rows), nonfinite="ffill")
        assert trials[0].n_samples == 1
        assert trials[0].series[0, 0] == 2.0

    def test_integer_labels_pass_through(self, tmp_path):
        rows = [self.row("j1", 0, label="4"), self.row("j2", 0, label="9")]
        trials = ingest_raw_csv(self.write(tmp_path, rows))
        assert sorted(t.label for t in trials) == [4, 9]
        assert all(t.label_name is None for t in trials)

    @pytest.mark.parametrize("labels", [("1_0", "10", "+10"), ("010", "10", "-3")])
    def test_labels_int_would_merge_stay_names(self, tmp_path, labels):
        rows = [self.row(f"j{i}", 0, label=label) for i, label in enumerate(labels)]
        trials = ingest_raw_csv(self.write(tmp_path, rows))
        assert len({t.label for t in trials}) == 3
        assert sorted(t.label_name for t in trials) == sorted(labels)

    def test_short_row_names_its_line(self, tmp_path):
        rows = [self.row("j1", 0), self.row("j1", 1)[:-4], self.row("j1", 2)]
        with pytest.raises(SchemaMismatchError, match="line 3: fewer fields than the header"):
            ingest_raw_csv(self.write(tmp_path, rows))

    def test_bad_timestamp_names_its_path_and_line(self, tmp_path):
        path = self.write(tmp_path, [self.row("j1", 0), self.row("j1", "x"), self.row("j1", 2)])
        with pytest.raises(SchemaMismatchError, match=f"^{re.escape(str(path))} line 3: bad timestamp 'x'$"):
            ingest_raw_csv(path)

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "1e999"])
    def test_nonfinite_timestamp_is_refused(self, tmp_path, stamp):
        """list.sort cannot order NaN keys: the old reader returned the
        timestamps 2, nan, 1, 0 in the order 2, nan, 0, 1."""
        rows = [self.row("j1", t, values=[i] * 7) for i, t in enumerate([2, stamp, 1, 0])]
        path = self.write(tmp_path, rows)
        message = f"{path} line 3: bad timestamp '{stamp}'"
        with pytest.raises(SchemaMismatchError, match=f"^{re.escape(message)}$"):
            ingest_raw_csv(path)

    def test_extra_fields_are_ignored(self, tmp_path):
        rows = [self.row("j1", 0), self.row("j1", 1) + ",surplus,9"]
        (trial,) = ingest_raw_csv(self.write(tmp_path, rows))
        assert trial.n_samples == 2

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = self.write(tmp_path, [self.row("j1", 0), self.row("j1", 1)])
        path.write_bytes(path.read_bytes().replace(b"vgg", b"vg\xff"))
        with pytest.raises(SchemaMismatchError, match="utf-8"):
            ingest_raw_csv(path)

    def test_unterminated_quote_past_the_field_limit(self, tmp_path):
        rows = [self.row("j1", 0), self.row("j1", 1, label='"vgg')]
        rows += [self.row("j1", t) for t in range(2, 6000)]  # about 180 kB
        with pytest.raises(SchemaMismatchError, match=r"line \d+: field larger than field limit"):
            ingest_raw_csv(self.write(tmp_path, rows))

    def test_window_exits_2_on_a_short_row(self, tmp_path, capsys):
        rows = [self.row("j1", 0), self.row("j1", 1)[:-4]]
        assert main(["window", "--in", str(self.write(tmp_path, rows)),
                     "--out", str(tmp_path / "arc.npz")]) == 2
        assert "line 3" in capsys.readouterr().err

    def mutants(self, tmp_path):
        """400 seeded mutants of a small file, each written to one path:
        byte flips, truncations, commas and quotes added or deleted, and
        non-UTF-8 bytes."""
        rows = [self.row(f"j{j}", t, label=f'"{name}"')
                for j, name in enumerate(["vgg", "bert"]) for t in range(3)]
        base = self.write(tmp_path, rows).read_bytes()
        rng = np.random.default_rng(99)
        path = tmp_path / "mutant.csv"

        def mutate(raw):
            at = int(rng.integers(0, len(raw) + 1))
            kind = int(rng.integers(0, 7))
            if kind == 0:  # set one byte to any value
                return raw[:at] + bytes([int(rng.integers(0, 256))]) + raw[at + 1:]
            if kind == 1:  # truncate
                return raw[:at]
            if kind in (2, 3):  # delete a comma or a quote
                marks = [i for i, c in enumerate(raw) if c == b',"'[kind - 2]]
                i = marks[int(rng.integers(0, len(marks)))] if marks else len(raw)
                return raw[:i] + raw[i + 1:]
            return raw[:at] + (b",", b'"', b"\xff")[kind - 4] + raw[at:]  # add one

        for _ in range(400):
            raw = base
            for _ in range(int(rng.integers(1, 4))):
                raw = mutate(raw)
            path.write_bytes(raw)
            yield path

    def test_seeded_mutation_fuzz(self, tmp_path):
        """Every mutant gives trials or a typed error."""
        outcomes = {}
        for path in self.mutants(tmp_path):
            try:
                trials = ingest_raw_csv(path)
            except WlclassError as exc:
                outcomes[type(exc).__name__] = outcomes.get(type(exc).__name__, 0) + 1
                continue
            assert trials and all(isinstance(t, RawTrial) for t in trials)
            outcomes["trials"] = outcomes.get("trials", 0) + 1
        assert {"trials", "SchemaMismatchError"} <= set(outcomes), outcomes

    def test_mutants_match_the_row_by_row_reference(self, tmp_path):
        for path in self.mutants(tmp_path):
            assert_matches_reference(path)

    def test_awkward_file_matches_the_row_by_row_reference(self, tmp_path):
        """Quoted fields, CRLF endings, whitespace-only rows, extra fields,
        empty and unparseable cells, tied timestamps (0.0 and -0.0 too), two
        devices, and labels on only some rows."""
        rows = [
            self.HEADER,
            '"j1",2,0,,1,2,3,4,5,6,7',
            'j1,1,0,"vgg", 1.5 ,2.5,,x,5,6,7',
            "  , ,\t",
            "j1,1,0,bert,9,9,9,9,9,9,9,surplus,extra",
            'j1,0.0,1,,"1,5",2,3,4,5,6,7',
            "j1,-0.0,1,vgg,1,2,3,4,5,6,nan",
            "j1,-0.0,1,,8,8,8,8,8,8,8",
            "",
            "j2,5,0,,1e3,2,3,4,5,6,inf",
            "j2,4,0,,1_0,2,3,4,5,6,7",
            "j2,4,0,,3,3,3,3,3,3,3",
        ]
        path = tmp_path / "awkward.csv"
        path.write_bytes("\r\n".join(rows).encode() + b"\r\n")
        assert_matches_reference(path)
        j1_0 = ingest_raw_csv(path)[0]
        assert (j1_0.job_id, j1_0.label_name) == ("j1", "vgg")

    @pytest.mark.parametrize("n_rows", [8, 9])
    def test_block_boundaries_keep_readings_in_place(self, tmp_path, monkeypatch, n_rows):
        """With 2-row blocks, a row with an empty cell ends the first block
        and a row with an unparseable cell starts the second."""
        values = [[i] * 7 for i in range(n_rows)]
        values[1][2], values[2][5] = "", "x"
        rows = [self.row(f"j{i % 2}", n_rows - i, values=values[i]) for i in range(n_rows)]
        path = self.write(tmp_path, [*rows[:3], " ,", *rows[3:]])
        expected = {p: trial_fields(ingest_raw_csv(path, p)) for p in ("drop", "ffill")}
        monkeypatch.setattr(dataset_io, "_BLOCK_ROWS", 2)
        for policy, fields in expected.items():
            assert trial_fields(ingest_raw_csv(path, policy)) == fields


class TestRawTrial:
    def test_wrong_sensor_count(self):
        with pytest.raises(ShapeMismatchError):
            RawTrial("j", 0, np.zeros((5, 6)))

    def test_nan_rejected(self):
        series = np.zeros((5, 7))
        series[2, 3] = np.nan
        with pytest.raises(SchemaMismatchError):
            RawTrial("j", 0, series)
