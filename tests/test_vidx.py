import dataclasses
import os
import struct
import tracemalloc

import numpy as np
import pytest

from vse import (
    DataError,
    EmbeddingSet,
    VidxFormatError,
    flat_build,
    flat_search,
    ivf_flat_build,
    ivf_flat_search,
    ivf_pq_build,
    ivf_pq_search,
    load_index,
    save_index,
    write_embeddings,
)
from vse.vidx import crc64


def random_set(n, d, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)).astype(np.float32)
    return EmbeddingSet(
        vectors=rows, labels=[f"r{i}" for i in range(n)], normalized=False
    )


def pq_set(seed=0):
    return random_set(600, 16, seed=seed)


def test_crc64_check_value():
    assert crc64(b"123456789") == 0x995DC9BBDF1939FA


def test_flat_round_trip_bitwise(tmp_path):
    es = random_set(300, 12, seed=1)
    idx = flat_build(es)
    path = str(tmp_path / "f.vidx")
    save_index(idx, path)
    back = load_index(path)
    q = es.vectors[:25]
    for a, b in zip(flat_search(idx, q, k=5), flat_search(back, q, k=5)):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.dists, b.dists)
    assert back.base.labels == es.labels


def test_ivf_flat_round_trip_bitwise(tmp_path):
    es = random_set(400, 8, seed=2)
    idx = ivf_flat_build(es, nlist=8, seed=2)
    path = str(tmp_path / "i.vidx")
    save_index(idx, path)
    back = load_index(path)
    q = es.vectors[:25]
    a = ivf_flat_search(idx, q, k=4, nprobe=3)
    b = ivf_flat_search(back, q, k=4, nprobe=3)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.dists, rb.dists)


def test_ivf_pq_round_trip_bitwise(tmp_path):
    es = pq_set(seed=3)
    idx = ivf_pq_build(es, nlist=4, m=4, seed=3)
    path = str(tmp_path / "p.vidx")
    save_index(idx, path)
    back = load_index(path)
    q = es.vectors[:25]
    a = ivf_pq_search(idx, q, k=6, nprobe=4)
    b = ivf_pq_search(back, q, k=6, nprobe=4)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.dists, rb.dists)


def test_save_is_deterministic(tmp_path):
    es = random_set(200, 8, seed=4)
    idx = ivf_flat_build(es, nlist=4, seed=4)
    a = str(tmp_path / "a.vidx")
    b = str(tmp_path / "b.vidx")
    save_index(idx, a)
    save_index(idx, b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_kind_byte_in_header(tmp_path):
    es = pq_set(seed=5)
    for build, kind in (
        (lambda: flat_build(es), 0),
        (lambda: ivf_flat_build(es, nlist=4, seed=5), 1),
        (lambda: ivf_pq_build(es, nlist=4, m=4, seed=5), 2),
    ):
        path = str(tmp_path / f"k{kind}.vidx")
        save_index(build(), path)
        blob = open(path, "rb").read()
        assert blob[:4] == b"VIDX"
        assert blob[8] == kind


def test_flipped_byte_fails_checksum(tmp_path):
    es = random_set(100, 8, seed=6)
    path = str(tmp_path / "c.vidx")
    save_index(flat_build(es), path)
    blob = bytearray(open(path, "rb").read())
    mid = len(blob) // 2
    blob[mid] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(VidxFormatError, match="checksum") as e:
        load_index(path)
    assert e.value.offset == len(blob) - 8


def test_bad_magic_reported_at_offset_zero(tmp_path):
    es = random_set(50, 4, seed=7)
    path = str(tmp_path / "m.vidx")
    save_index(flat_build(es), path)
    body = bytearray(open(path, "rb").read()[:-8])
    body[:4] = b"XXXX"
    open(path, "wb").write(bytes(body) + struct.pack("<Q", crc64(bytes(body))))
    with pytest.raises(VidxFormatError) as e:
        load_index(path)
    assert e.value.offset == 0


def test_bad_version_reported_at_offset_four(tmp_path):
    es = random_set(50, 4, seed=8)
    path = str(tmp_path / "v.vidx")
    save_index(flat_build(es), path)
    body = bytearray(open(path, "rb").read()[:-8])
    body[4:8] = (7).to_bytes(4, "little")
    open(path, "wb").write(bytes(body) + struct.pack("<Q", crc64(bytes(body))))
    with pytest.raises(VidxFormatError) as e:
        load_index(path)
    assert e.value.offset == 4


def test_unknown_kind_reported_at_offset_eight(tmp_path):
    es = random_set(50, 4, seed=9)
    path = str(tmp_path / "u.vidx")
    save_index(flat_build(es), path)
    body = bytearray(open(path, "rb").read()[:-8])
    body[8] = 9
    open(path, "wb").write(bytes(body) + struct.pack("<Q", crc64(bytes(body))))
    with pytest.raises(VidxFormatError) as e:
        load_index(path)
    assert e.value.offset == 8


def test_truncated_body_reports_end_offset(tmp_path):
    es = random_set(50, 4, seed=10)
    path = str(tmp_path / "t.vidx")
    save_index(flat_build(es), path)
    body = open(path, "rb").read()[:-8]
    cut = body[: len(body) - 10]
    open(path, "wb").write(cut + struct.pack("<Q", crc64(cut)))
    with pytest.raises(VidxFormatError) as e:
        load_index(path)
    assert e.value.offset == len(cut)


def test_unicode_labels_round_trip(tmp_path):
    rows = np.eye(3, dtype=np.float32)
    es = EmbeddingSet(
        vectors=rows, labels=["étienne", "König", "日本語"], normalized=True
    )
    path = str(tmp_path / "uni.vidx")
    save_index(flat_build(es), path)
    assert load_index(path).base.labels == ["étienne", "König", "日本語"]


def test_pq_file_size_matches_layout(tmp_path):
    es = pq_set(seed=11)
    idx = ivf_pq_build(es, nlist=4, m=4, seed=11)
    path = str(tmp_path / "sz.vidx")
    save_index(idx, path)

    def codebook_bytes(cb):
        return 4 + 4 + 8 + 4 * cb.k * cb.dim

    want = 21 + 1  # header + normalized flag
    want += 8 + sum(len(l.encode("utf-8")) + 1 for l in es.labels)
    want += codebook_bytes(idx.coarse)
    want += 4 + 4  # m, ksub
    want += sum(codebook_bytes(cb) for cb in idx.subs)
    for ids, codes in zip(idx.list_ids, idx.list_codes):
        want += 8 + 8 * ids.shape[0] + codes.size
    want += 8  # checksum
    assert os.path.getsize(path) == want


def _expected_vidx(es, index, kind):
    """The VIDX v1 file for an index built from es, assembled field by field."""
    def codebook(cb):
        return struct.pack("<IId", cb.k, cb.dim, cb.inertia) + cb.centroids.astype("<f4").tobytes()

    labels = "".join(label + "\n" for label in es.labels).encode("utf-8")
    body = struct.pack("<4sIBIQ", b"VIDX", 1, kind, es.dim, es.count)
    body += struct.pack("<B", int(es.normalized))
    body += struct.pack("<Q", len(labels)) + labels
    if kind == 0:
        return body + es.vectors.astype("<f4").tobytes()
    body += codebook(index.coarse)
    if kind == 1:
        payloads, dtype = index.list_vectors, "<f4"
    else:
        body += struct.pack("<II", index.m, 256)
        body += b"".join(codebook(cb) for cb in index.subs)
        payloads, dtype = index.list_codes, "u1"
    for ids, payload in zip(index.list_ids, payloads):
        body += struct.pack("<Q", ids.shape[0]) + ids.astype("<i8").tobytes()
        body += payload.astype(dtype).tobytes()
    return body


@pytest.mark.parametrize("kind", [0, 1, 2])
def test_vidx_v1_bytes_pinned(tmp_path, kind):
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((300, 8)).astype(np.float32)
    es = EmbeddingSet(vectors=rows, labels=[f"p{i % 7}" for i in range(300)], normalized=False)
    if kind == 0:
        idx = flat_build(es)
    elif kind == 1:
        idx = ivf_flat_build(es, nlist=5, seed=31, max_iters=5)
    else:
        idx = ivf_pq_build(es, nlist=3, m=2, seed=31, max_iters=3)
    path = str(tmp_path / "pin.vidx")
    save_index(idx, path)
    body = _expected_vidx(es, idx, kind)
    assert open(path, "rb").read() == body + struct.pack("<Q", crc64(body))


@pytest.mark.parametrize("kind", ["ivf_flat", "ivf_pq"])
def test_empty_label_in_ivf_file_reported_at_its_offset(tmp_path, kind):
    rows = random_set(600, 16, seed=12).vectors
    es = EmbeddingSet(vectors=rows, labels=["ab", "c"] + [f"r{i}" for i in range(598)])
    if kind == "ivf_flat":
        idx = ivf_flat_build(es, nlist=4, seed=12)
    else:
        idx = ivf_pq_build(es, nlist=4, m=4, seed=12)
    path = str(tmp_path / "e.vidx")
    save_index(idx, path)
    body = open(path, "rb").read()[:-8]
    # Labels start at byte 30; "ab\nc\n" becomes "\nabc\n", so label 0 is empty.
    assert body[30:35] == b"ab\nc\n"
    body = body[:30] + b"\nabc\n" + body[35:]
    open(path, "wb").write(body + struct.pack("<Q", crc64(body)))
    with pytest.raises(VidxFormatError, match="label 0") as e:
        load_index(path)
    assert e.value.offset == 30


@pytest.mark.parametrize("fault", ["duplicate", "out_of_range"])
@pytest.mark.parametrize("kind", ["ivf_flat", "ivf_pq"])
def test_lists_that_do_not_partition_the_rows_are_refused(tmp_path, kind, fault):
    """An IVF index whose ids are not each of 0..count-1 once cannot be made,
    so it can be neither saved unreadably nor searched into an IndexError."""
    es = random_set(300, 8, seed=14)
    if kind == "ivf_flat":
        idx = ivf_flat_build(es, nlist=4, seed=14, max_iters=3)
    else:
        idx = ivf_pq_build(es, nlist=4, m=2, seed=14, max_iters=3)
    list_ids = [ids.copy() for ids in idx.list_ids]
    longest = max(range(len(list_ids)), key=lambda j: list_ids[j].shape[0])
    if fault == "duplicate":
        list_ids[longest][1] = list_ids[longest][0]
    else:
        list_ids[longest][0] = 10**6
    with pytest.raises(DataError, match="partition"):
        dataclasses.replace(idx, list_ids=tuple(list_ids))

    # The same ids in a file are refused at load, inside the posting lists.
    path = str(tmp_path / "p.vidx")
    save_index(idx, path)
    body = open(path, "rb").read()[:-8]
    old = idx.list_ids[longest].astype("<i8").tobytes()
    at = body.index(old)
    body = body[:at] + list_ids[longest].astype("<i8").tobytes() + body[at + len(old):]
    open(path, "wb").write(body + struct.pack("<Q", crc64(body)))
    with pytest.raises(VidxFormatError, match="partition") as e:
        load_index(path)
    assert e.value.offset is not None and e.value.offset < at


def test_save_holds_one_copy_of_the_file(tmp_path):
    """Arrays go to the file's join as views, so saving a 5 MB index peaks
    near the file size, not twice it."""
    rows = np.random.default_rng(15).standard_normal((20_000, 64)).astype(np.float32)
    idx = flat_build(EmbeddingSet(vectors=rows, labels=["a"] * 20_000))
    path = str(tmp_path / "big.vidx")
    tracemalloc.start()
    try:
        save_index(idx, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * os.path.getsize(path)


def test_fvb_write_holds_no_copy_of_the_file(tmp_path):
    """The vectors go to an FVB file as a view of the set, so writing 5 MB
    peaks far under the file size."""
    rows = np.random.default_rng(15).standard_normal((20_000, 64)).astype(np.float32)
    es = EmbeddingSet(vectors=rows, labels=["a"] * 20_000)
    path = str(tmp_path / "big.fvb")
    tracemalloc.start()
    try:
        write_embeddings(es, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * os.path.getsize(path)


def _pq_file(tmp_path):
    """An ivf_pq index of 300x8 rows, its file body (no CRC), and where its
    m and ksub fields and its posting lists start."""
    idx = ivf_pq_build(random_set(300, 8, seed=14), nlist=4, m=2, seed=14, max_iters=3)
    path = str(tmp_path / "p.vidx")
    save_index(idx, path)
    body = open(path, "rb").read()[:-8]
    lists_at = len(body) - sum(8 + ids.shape[0] * (8 + idx.m) for ids in idx.list_ids)
    params_at = lists_at - 8 - sum(16 + 4 * cb.k * cb.dim for cb in idx.subs)
    return idx, path, body, params_at, lists_at


def _rewrite(path, body):
    open(path, "wb").write(body + struct.pack("<Q", crc64(body)))


def test_ivf_pq_list_fault_is_reported_in_the_lists(tmp_path):
    idx, path, body, _, lists_at = _pq_file(tmp_path)
    ids = next(ids for ids in idx.list_ids if ids.shape[0] >= 2)
    old = ids.astype("<i8").tobytes()
    at = body.index(old)
    _rewrite(path, body[:at] + old[:8] + old[:8] + body[at + 16 :])
    with pytest.raises(VidxFormatError, match="partition") as e:
        load_index(path)
    assert lists_at <= e.value.offset <= at


def test_ksub_other_than_256_is_refused_at_its_field(tmp_path):
    _, path, body, params_at, _ = _pq_file(tmp_path)
    assert struct.unpack_from("<II", body, params_at) == (2, 256)
    _rewrite(path, body[: params_at + 4] + struct.pack("<I", 128) + body[params_at + 8 :])
    with pytest.raises(VidxFormatError, match="ksub") as e:
        load_index(path)
    assert e.value.offset == params_at + 4
