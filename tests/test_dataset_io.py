import hashlib
import io

import numpy as np
import pytest

from wlclass.cli import (
    read_feature_set,
    read_reduction_bundle,
    write_feature_set,
    write_reduction_bundle,
)
from wlclass.dataset_io import (
    ChallengeDataset,
    GPU_SENSORS,
    RawTrial,
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
    WlclassError,
)
from wlclass.model_selection import ReductionSpec, fit_reduction


def reference_bytes(arr, version=None):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr), version=version)
    return buf.getvalue()


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
                descr, offset = parse_array_header(raw)

                buf = io.BytesIO(raw)
                np.lib.format.read_magic(buf)
                ref_shape, ref_fortran, ref_dtype = np.lib.format.read_array_header_1_0(buf)
                assert descr.shape == ref_shape
                assert (descr.layout == "column-major") == ref_fortran
                assert descr.to_numpy_dtype() == ref_dtype
                assert offset == buf.tell()
                assert descr.payload_nbytes == len(raw) - offset

    def test_version_two_headers_parse(self):
        arr = np.arange(12.0).reshape(3, 4)
        raw = reference_bytes(arr, version=(2, 0))
        descr, offset = parse_array_header(raw)
        assert descr.shape == (3, 4)
        assert descr.element_type == "float64"
        np.testing.assert_array_equal(read_array(raw), arr)

    def test_fortran_order_payload(self):
        arr = np.asfortranarray(np.arange(20.0).reshape(4, 5))
        raw = reference_bytes(arr)
        descr, _ = parse_array_header(raw)
        assert descr.layout == "column-major"
        np.testing.assert_array_equal(read_array(raw), arr)

    def test_big_endian_payload(self):
        arr = np.arange(6, dtype=">i4").reshape(2, 3)
        raw = reference_bytes(arr)
        descr, _ = parse_array_header(raw)
        assert descr.byte_order == "big"
        np.testing.assert_array_equal(read_array(raw), arr)


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
            _, offset = parse_array_header(raw)
            assert offset % 64 == 0

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(UnsupportedDtypeError):
            write_array(np.array([1 + 2j, 3 + 4j]))


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
                descr, offset = parse_array_header(bytes(raw))
            except WlclassError:
                continue
            assert len(raw) - offset == descr.payload_nbytes

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


def _write_archive(target):
    x_train, y_train, names, x_test, y_test, _ = small_dataset()
    write_challenge_archive(ChallengeDataset(x_train, y_train, names, x_test, y_test, names),
                            target)


def _write_cov_feature_set(target):
    x_train, y_train, names, x_test, y_test, _ = small_dataset()
    reduction = fit_reduction(ReductionSpec("cov"), x_train)
    write_feature_set(target, reduction.transform(x_train), y_train,
                      reduction.transform(x_test), y_test,
                      {"reduction": "cov", "class_names": names})


def _write_pca_reduction_bundle(target):
    x_train, *_ = small_dataset()
    write_reduction_bundle(target, fit_reduction(ReductionSpec("pca", k=4), x_train))


#: Every zip artifact the package writes: (writer to a file-like, reader).
ZIP_ARTIFACTS = {
    "archive": (_write_archive, read_challenge_archive),
    "cov-feature-set": (_write_cov_feature_set, read_feature_set),
    "pca-reduction-bundle": (_write_pca_reduction_bundle, read_reduction_bundle),
}


class TestChallengeArchive:
    def test_round_trip_preserves_everything(self, tmp_path):
        x_train, y_train, names, x_test, y_test, _ = small_dataset()
        ds = ChallengeDataset(x_train, y_train, names, x_test, y_test, names)
        path = tmp_path / "bundle.npz"
        write_challenge_archive(ds, path)
        back = read_challenge_archive(path)
        assert back.equal(ds)

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
        assert ds.label_convention == "1-based"
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
        assert read_challenge_archive(buf).equal(ds)

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


class TestRawTrial:
    def test_wrong_sensor_count(self):
        with pytest.raises(ShapeMismatchError):
            RawTrial("j", 0, np.zeros((5, 6)))

    def test_nan_rejected(self):
        series = np.zeros((5, 7))
        series[2, 3] = np.nan
        with pytest.raises(SchemaMismatchError):
            RawTrial("j", 0, series)
