"""One sha256 per artifact of two seeded 20,000-row galleries.

Run from the repository root:

    PYTHONPATH=src python tests/digests.py > digests.txt

The galleries are shaped like the benchmark's two workloads: 2,190
identities of 10 normalized 128-d rows, of which 1,000 give one probe
each and 100 of those leave the gallery, so 20,000 rows stay; 5%
("serve") or 25% ("enroll") of the gallery's identities are given one
row of somebody else. For each gallery it prints
`<gallery> <artifact> <sha256>` for
- the cleaned gallery's FVB file and labels sidecar, and its cleaning
  reports;
- the VIDX bytes of a flat, an ivf_flat and an ivf_pq index built on the
  served gallery (the raw one for "serve", the cleaned one for "enroll");
- the ids, distance bits and `approximate` flags of 1,000 one-query
  searches and of one 1,000-query batch, per index kind.

A change that claims the same bits must print the same lines before and
after it: diff the output of the two versions. There is no golden file,
because k-means labels on exact ties may differ between BLAS builds, and
so may the index bytes. pytest does not collect this file (it matches no
`test_*.py`): it takes one to two minutes on a 2-vCPU host.
"""

import hashlib
import pathlib
import struct
import tempfile

import numpy as np

from vse import (
    EmbeddingSet,
    SplitSpec,
    clean_gallery,
    flat_build,
    flat_search,
    ivf_flat_build,
    ivf_flat_search,
    ivf_pq_build,
    ivf_pq_search,
    make_split,
    normalize_rows,
    save_index,
    synthetic_gallery,
    write_embeddings,
)

K = 10
# name: (share of identities given a mislabeled row, nlist, nprobe, m, served after cleaning)
GALLERIES = {
    "serve": (0.05, 256, 8, 16, False),
    "enroll": (0.25, 64, 4, 16, True),
}


def sha(*blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def gallery_and_probes(planted: float, seed: int = 1):
    """A normalized 20,000-row synthetic gallery with `planted` of its
    identities given the first row of another identity, and 1,000 probes."""
    source = synthetic_gallery(2190, 10, 128, 0.05, seed=seed)
    source = EmbeddingSet(normalize_rows(source.vectors), source.labels, normalized=True)
    split = make_split(source, SplitSpec(1000, 0.9, 1, seed=seed))
    labels = list(split.gallery.labels)
    first = {}
    for row, label in enumerate(labels):
        first.setdefault(label, row)
    names = list(first)
    n = round(planted * len(names))
    picks = np.random.default_rng(seed).choice(len(names), size=2 * n, replace=False)
    for receiver, donor in zip(picks[:n], picks[n:]):
        labels[first[names[donor]]] = names[receiver]
    gallery = EmbeddingSet(split.gallery.vectors, labels, normalized=True)
    return gallery, split.probes.vectors


def reports_digest(reports) -> str:
    return sha(*(
        r.identity.encode() + b"\0" + r.kept.tobytes() + r.removed.tobytes()
        + r.main_center.tobytes() + struct.pack("<dd", r.avg_dist, r.threshold)
        for r in reports
    ))


def results_digest(results) -> str:
    return sha(*(
        r.ids.tobytes() + r.dists.tobytes() + bytes([r.approximate]) for r in results
    ))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name, (planted, nlist, nprobe, m, clean_first) in GALLERIES.items():
            gallery, probes = gallery_and_probes(planted)
            cleaned, reports = clean_gallery(gallery, seed=0)
            write_embeddings(cleaned, str(tmp / "cleaned.fvb"))
            fvb = (tmp / "cleaned.fvb").read_bytes(), (tmp / "cleaned.fvb.labels").read_bytes()
            print(name, "cleaned.fvb", sha(*fvb))
            print(name, "clean_reports", reports_digest(reports))
            served = cleaned if clean_first else gallery
            kinds = {
                "flat": (flat_build(served), lambda i, q: flat_search(i, q, K)),
                "ivf_flat": (
                    ivf_flat_build(served, nlist, seed=0),
                    lambda i, q: ivf_flat_search(i, q, K, nprobe=nprobe),
                ),
                "ivf_pq": (
                    ivf_pq_build(served, nlist, m, seed=0),
                    lambda i, q: ivf_pq_search(i, q, K, nprobe=nprobe),
                ),
            }
            for kind, (index, search) in kinds.items():
                save_index(index, str(tmp / "index.vidx"))
                print(name, f"{kind}.vidx", sha((tmp / "index.vidx").read_bytes()))
                one = [search(index, probes[p : p + 1])[0] for p in range(probes.shape[0])]
                print(name, f"{kind}.one_query", results_digest(one))
                print(name, f"{kind}.batch", results_digest(search(index, probes)))


if __name__ == "__main__":
    main()
