"""On-disk persistence for corpora and model parameters.

A corpus saves to a directory of simple, inspectable artifacts:

* ``meta.json`` — format version, counts, month span;
* ``objects.jsonl`` — one JSON object per media object (id, timestamp,
  feature bag in canonical ``type:name -> count`` form);
* ``favorites.jsonl`` — one favorite event per line;
* ``social.json`` — user -> group memberships;
* ``taxonomy.json`` — node -> parent (IS-A hierarchy);
* ``topics.json`` — ground-truth dominant topics per object;
* ``codebook.npy`` + ``codebook.json`` — visual-word centroids and the
  similarity scale.

JSON-lines keeps object loading streamable and diffs readable; the
centroid matrix is the only binary artifact.  ``MRFParameters`` get a
single-file JSON round trip so trained parameters can ship with an
index.

The clique inverted index persists in one of two formats, autodetected
on load by content (binary magic bytes, never file name):

* **v3 binary** (default; see :mod:`repro.index.binfmt`) — packed
  contiguous sections behind a CRC-checked header, loaded O(metadata)
  via ``mmap`` with lazy per-clique decode
  (:class:`repro.index.segment.MmapCliqueIndex`);
* **v2 JSONL** (``index.jsonl``) — a metadata first line followed by
  one posting per line, storing each entry's build-time Eq. 7
  components (``freq`` / ``smooth`` arrays parallel to ``ids``) so a
  loaded index serves impact-ordered queries without touching the
  corpus.  JSON float serialization uses ``repr`` shortest round-trip,
  so stored components are bit-identical after a load.  Version-1
  artifacts (ids only) still load but need the corpus to rescore — the
  upgrade path.

:func:`convert_index` migrates between v2 and v3 without a corpus or a
correlation model; rankings from either format are bit-identical.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.core.correlation import CorrelationModel
from repro.core.mrf import MRFParameters
from repro.core.objects import Feature, MediaObject
from repro.index import binfmt
from repro.index.binfmt import BinaryFormatError
from repro.index.inverted import CliqueInvertedIndex
from repro.index.postings import Posting
from repro.index.segment import MmapCliqueIndex
from repro.social.corpus import Corpus, FavoriteEvent
from repro.social.users import SocialGraph
from repro.text.taxonomy import Taxonomy
from repro.vision.visual_words import VisualCodebook

FORMAT_VERSION = 1

#: JSONL index artifact format.  v1 = posting ids only (rescore on
#: load); v2 = ids + build-time Eq. 7 components (impact-ready).
INDEX_FORMAT_VERSION = 2

#: Binary (mmap) index artifact format — the v3 default.
BINARY_INDEX_FORMAT_VERSION = binfmt.BINARY_FORMAT_VERSION


class StorageError(RuntimeError):
    """Raised for malformed or incompatible on-disk artifacts."""


def _read_json(path: Path, description: str) -> object:
    """Parse one JSON artifact, mapping every failure mode (missing
    file, undecodable bytes, malformed JSON) to :class:`StorageError`."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise StorageError(f"missing {description}: {path}") from None
    except OSError as exc:
        raise StorageError(f"unreadable {description} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt {description} {path}: {exc}") from exc


def _record_field(record: dict, key: str, path: Path, line_number: int) -> object:
    try:
        return record[key]
    except KeyError:
        raise StorageError(
            f"corrupt record in {path} line {line_number}: missing field {key!r}"
        ) from None


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------
def save_corpus(corpus: Corpus, directory: str | Path) -> Path:
    """Write ``corpus`` into ``directory`` (created if missing).

    Returns the directory path.  Existing artifacts are overwritten —
    a corpus directory is treated as a unit.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    meta = {
        "format_version": FORMAT_VERSION,
        "n_objects": len(corpus),
        "n_favorites": len(corpus.favorites),
        "n_months": corpus.n_months,
        "has_taxonomy": corpus.taxonomy is not None,
        "has_codebook": corpus.codebook is not None,
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2))

    with (path / "objects.jsonl").open("w") as fh:
        for obj in corpus:
            record = {
                "id": obj.object_id,
                "t": obj.timestamp,
                "features": {f.key: c for f, c in sorted(obj.features.items())},
            }
            fh.write(json.dumps(record) + "\n")

    with (path / "favorites.jsonl").open("w") as fh:
        for event in corpus.favorites:
            fh.write(
                json.dumps({"user": event.user, "object": event.object_id, "month": event.month})
                + "\n"
            )

    memberships = {u: sorted(corpus.social.groups_of(u)) for u in corpus.social.users}
    (path / "social.json").write_text(json.dumps(memberships, indent=0))

    topics = {
        obj.object_id: list(corpus.topics(obj.object_id))
        for obj in corpus
        if corpus.topics(obj.object_id)
    }
    (path / "topics.json").write_text(json.dumps(topics, indent=0))

    if corpus.taxonomy is not None:
        parents = {
            node: corpus.taxonomy.parent(node)
            for node in _taxonomy_nodes(corpus.taxonomy)
        }
        (path / "taxonomy.json").write_text(json.dumps(parents, indent=0))

    if corpus.codebook is not None:
        np.save(path / "codebook.npy", corpus.codebook.centroids)
        (path / "codebook.json").write_text(
            json.dumps({"similarity_scale": corpus.codebook.similarity_scale})
        )
    return path


def load_corpus(directory: str | Path) -> Corpus:
    """Load a corpus previously written by :func:`save_corpus`."""
    path = Path(directory)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise StorageError(f"{path} is not a corpus directory (missing meta.json)")
    meta = _read_json(meta_path, "corpus metadata")
    if not isinstance(meta, dict):
        raise StorageError(f"corrupt corpus metadata {meta_path}: not a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported corpus format version {version!r}")

    objects: list[MediaObject] = []
    objects_path = path / "objects.jsonl"
    if not objects_path.exists():
        raise StorageError(f"missing object store: {objects_path}")
    with objects_path.open() as fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StorageError(
                    f"corrupt or truncated {objects_path} at line {line_number}: {exc}"
                ) from exc
            raw_features = _record_field(record, "features", objects_path, line_number)
            try:
                features = {
                    Feature.from_key(key): count for key, count in raw_features.items()
                }
            except (AttributeError, ValueError) as exc:
                raise StorageError(
                    f"corrupt feature bag in {objects_path} line {line_number}: {exc}"
                ) from exc
            objects.append(
                MediaObject(
                    object_id=_record_field(record, "id", objects_path, line_number),
                    features=features,
                    timestamp=_record_field(record, "t", objects_path, line_number),
                )
            )
    if len(objects) != meta.get("n_objects", len(objects)):
        raise StorageError(
            f"truncated {objects_path}: metadata promises {meta.get('n_objects')} "
            f"objects, found {len(objects)}"
        )

    favorites: list[FavoriteEvent] = []
    fav_path = path / "favorites.jsonl"
    if fav_path.exists():
        with fav_path.open() as fh:
            for line_number, line in enumerate(fh, start=1):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise StorageError(
                        f"corrupt or truncated {fav_path} at line {line_number}: {exc}"
                    ) from exc
                favorites.append(
                    FavoriteEvent(
                        user=_record_field(record, "user", fav_path, line_number),
                        object_id=_record_field(record, "object", fav_path, line_number),
                        month=_record_field(record, "month", fav_path, line_number),
                    )
                )

    social = SocialGraph(_read_json(path / "social.json", "social graph"))
    topics_raw = _read_json(path / "topics.json", "topic ground truth")
    if not isinstance(topics_raw, dict):
        raise StorageError(f"corrupt topic ground truth {path / 'topics.json'}")
    topics = {oid: tuple(t) for oid, t in topics_raw.items()}

    taxonomy = None
    tax_path = path / "taxonomy.json"
    if tax_path.exists():
        taxonomy = Taxonomy(_read_json(tax_path, "taxonomy"))
    elif meta.get("has_taxonomy"):
        raise StorageError(f"metadata promises a taxonomy but {tax_path} is missing")

    codebook = None
    cb_path = path / "codebook.npy"
    if cb_path.exists():
        try:
            centroids = np.load(cb_path)
        except (OSError, ValueError) as exc:
            raise StorageError(f"corrupt codebook {cb_path}: {exc}") from exc
        cb_meta = _read_json(path / "codebook.json", "codebook metadata")
        if not isinstance(cb_meta, dict) or "similarity_scale" not in cb_meta:
            raise StorageError(
                f"corrupt codebook metadata {path / 'codebook.json'}: "
                "missing similarity_scale"
            )
        codebook = VisualCodebook(centroids, similarity_scale=cb_meta["similarity_scale"])
    elif meta.get("has_codebook"):
        raise StorageError(f"metadata promises a codebook but {cb_path} is missing")

    return Corpus(
        objects=objects,
        social=social,
        taxonomy=taxonomy,
        codebook=codebook,
        topics_of=topics,
        favorites=favorites,
        n_months=meta["n_months"],
    )


def append_objects(directory: str | Path, objects: Sequence[MediaObject]) -> Path:
    """Append ``objects`` to a saved corpus — the streaming-ingest
    durability path.

    New records append to ``objects.jsonl`` (the canonical record shape
    :func:`save_corpus` writes) and ``meta.json`` is rewritten atomically
    with the new object count, so a plain :func:`load_corpus` of the
    directory reflects the ingest.  The caller is responsible for id
    uniqueness (the in-memory :meth:`~repro.social.corpus.Corpus.extended`
    validates it before anything touches disk).  A crash between the
    append and the meta rewrite leaves the directory failing
    :func:`load_corpus`'s count check ("truncated") rather than silently
    serving a half-applied batch.
    """
    path = Path(directory)
    meta_path = path / "meta.json"
    meta = _read_json(meta_path, "corpus metadata")
    if not isinstance(meta, dict):
        raise StorageError(f"corrupt corpus metadata {meta_path}: not a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported corpus format version {version!r}")
    objects_path = path / "objects.jsonl"
    if not objects_path.exists():
        raise StorageError(f"missing object store: {objects_path}")
    materialized = list(objects)
    with objects_path.open("a") as fh:
        for obj in materialized:
            record = {
                "id": obj.object_id,
                "t": obj.timestamp,
                "features": {f.key: c for f, c in sorted(obj.features.items())},
            }
            fh.write(json.dumps(record) + "\n")
        fh.flush()
    meta["n_objects"] = int(meta.get("n_objects", 0)) + len(materialized)
    tmp = meta_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(meta, indent=2))
    tmp.replace(meta_path)
    return path


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------
def save_params(params: MRFParameters, file_path: str | Path) -> Path:
    """Write MRF parameters as JSON."""
    path = Path(file_path)
    payload = {
        "format_version": FORMAT_VERSION,
        "lambdas": {str(size): weight for size, weight in sorted(params.lambdas.items())},
        "alpha": params.alpha,
        "use_cors": params.use_cors,
        "delta": params.delta,
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_params(file_path: str | Path) -> MRFParameters:
    """Load MRF parameters written by :func:`save_params`."""
    path = Path(file_path)
    payload = _read_json(path, "parameter file")
    if not isinstance(payload, dict):
        raise StorageError(f"corrupt parameter file {path}: not a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported parameter format version {version!r}")
    try:
        return MRFParameters(
            lambdas={int(size): weight for size, weight in payload["lambdas"].items()},
            alpha=payload["alpha"],
            use_cors=payload["use_cors"],
            delta=payload["delta"],
        )
    except (KeyError, AttributeError, ValueError) as exc:
        raise StorageError(f"corrupt parameter file {path}: {exc}") from exc


# ----------------------------------------------------------------------
# clique inverted index
# ----------------------------------------------------------------------
def _resolve_index_format(path: Path, format: str) -> str:
    """Map a ``save_index`` format argument to ``"jsonl"``/``"binary"``.

    ``"auto"`` infers from the suffix: ``.jsonl`` stays the v2 text
    format (keeping every existing call site and artifact name stable),
    anything else gets the v3 binary default.
    """
    if format == "auto":
        return "jsonl" if path.suffix == ".jsonl" else "binary"
    if format not in ("jsonl", "binary"):
        raise ValueError(f"unknown index format {format!r} (use 'binary' or 'jsonl')")
    return format


def _posting_record(posting: Posting) -> dict:
    freq: list[float] = []
    smooth: list[float] = []
    for i in range(len(posting)):
        f, s = posting.components(i)
        freq.append(f)
        smooth.append(s)
    return {
        "key": posting.key,
        "cors": posting.cors,
        "ids": list(posting.object_ids),
        "freq": freq,
        "smooth": smooth,
    }


def _write_index_jsonl(
    path: Path,
    postings: Sequence[Posting],
    *,
    n_objects: int,
    max_clique_size: int,
) -> Path:
    meta = {
        "format_version": INDEX_FORMAT_VERSION,
        "kind": "clique-index",
        "max_clique_size": max_clique_size,
        "n_objects": n_objects,
        "n_cliques": len(postings),
    }
    with path.open("w") as fh:
        fh.write(json.dumps(meta) + "\n")
        for posting in postings:
            fh.write(json.dumps(_posting_record(posting)) + "\n")
    return path


def save_index(
    index: CliqueInvertedIndex, file_path: str | Path, format: str = "auto"
) -> Path:
    """Persist the index — v3 binary by default, v2 ``index.jsonl`` for
    ``.jsonl`` paths or an explicit ``format="jsonl"``.

    Postings serialize in index iteration order (first-encounter corpus
    order); both formats preserve that order (the binary format via its
    ``order`` section) so a save/load round trip re-serializes
    identically.  The binary format canonicalizes entry order *within*
    a posting to ascending object id — a pure permutation that cannot
    change rankings, since every consumer sorts by ``(-score, id)``.
    """
    path = Path(file_path)
    fmt = _resolve_index_format(path, format)
    postings = list(index.iter_postings())
    try:
        if fmt == "jsonl":
            return _write_index_jsonl(
                path,
                postings,
                n_objects=index.n_objects,
                max_clique_size=index.max_clique_size,
            )
        return binfmt.write_index_file(
            path,
            postings,
            n_objects=index.n_objects,
            max_clique_size=index.max_clique_size,
        )
    except BinaryFormatError as exc:
        raise StorageError(f"cannot write binary index {path}: {exc}") from exc
    except OSError as exc:
        raise StorageError(f"cannot write index artifact {path}: {exc}") from exc


def index_artifact_version(file_path: str | Path) -> int:
    """Sniff the on-disk format version of an index artifact (1, 2 or
    3) without loading it.  Binary detection is by magic bytes, never
    by file name."""
    path = Path(file_path)
    try:
        with path.open("rb") as fh:
            head = fh.read(len(binfmt.MAGIC))
    except FileNotFoundError:
        raise StorageError(f"missing index artifact: {path}") from None
    except OSError as exc:
        raise StorageError(f"unreadable index artifact {path}: {exc}") from exc
    if head == binfmt.MAGIC:
        return BINARY_INDEX_FORMAT_VERSION
    meta, _version = _read_jsonl_meta_line(path)
    return int(meta["format_version"])


def _read_jsonl_meta_line(path: Path) -> tuple[dict, int]:
    """Parse and validate the metadata first line of a JSONL artifact."""
    try:
        with path.open() as fh:
            first = fh.readline()
    except FileNotFoundError:
        raise StorageError(f"missing index artifact: {path}") from None
    except OSError as exc:
        raise StorageError(f"unreadable index artifact {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StorageError(
            f"{path} is neither a binary index (bad magic) nor JSONL: {exc}"
        ) from exc
    if not first:
        raise StorageError(f"empty index artifact: {path}")
    try:
        meta = json.loads(first)
    except json.JSONDecodeError as exc:
        raise StorageError(
            f"corrupt index metadata in {path} (meta section, line 1): {exc}"
        ) from exc
    if not isinstance(meta, dict) or meta.get("kind") != "clique-index":
        raise StorageError(f"{path} is not a clique-index artifact")
    version = meta.get("format_version")
    if version not in (1, INDEX_FORMAT_VERSION):
        raise StorageError(f"unsupported index format version {version!r}")
    meta["format_version"] = version
    return meta, int(version)


def _read_index_jsonl(path: Path) -> tuple[dict, list[Posting], int]:
    """Read a v1/v2 JSONL artifact into ``(meta, postings, version)``.

    Every corruption mode names the failing section (meta vs postings)
    and the line it was detected on; v1 postings come back unscored
    (the caller rescores against the corpus).
    """
    meta, version = _read_jsonl_meta_line(path)
    postings: list[Posting] = []
    seen: set[str] = set()
    with path.open() as fh:
        fh.readline()  # meta line, already parsed
        for line_number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StorageError(
                    f"corrupt or truncated {path} at line {line_number} "
                    f"(postings section): {exc}"
                ) from exc
            key = _record_field(record, "key", path, line_number)
            ids = _record_field(record, "ids", path, line_number)
            cors = record.get("cors")
            if key in seen:
                raise StorageError(
                    f"corrupt index artifact {path}: duplicate posting {key!r} "
                    f"at line {line_number} (postings section)"
                )
            seen.add(key)
            posting = Posting(key, cors=cors)
            if version == 1:
                for object_id in ids:
                    posting.add(object_id)
            else:
                freq = _record_field(record, "freq", path, line_number)
                smooth = _record_field(record, "smooth", path, line_number)
                if len(freq) != len(ids) or len(smooth) != len(ids):
                    raise StorageError(
                        f"corrupt posting {key!r} in {path} line {line_number} "
                        "(postings section): component arrays do not match the id list"
                    )
                posting.extend_scored(list(zip(ids, freq, smooth)))
            postings.append(posting)

    promised = meta.get("n_cliques", len(postings))
    if len(postings) != promised:
        raise StorageError(
            f"truncated {path} (postings section): metadata promises {promised} "
            f"postings, found {len(postings)}"
        )
    return meta, postings, version


def load_index(
    file_path: str | Path,
    correlations: CorrelationModel,
    corpus: Corpus | None = None,
    max_clique_size: int | None = None,
    verify_payload: bool = True,
) -> CliqueInvertedIndex:
    """Load an index artifact, autodetecting its format by content.

    v3 binary artifacts (magic sniff) come back as an
    :class:`MmapCliqueIndex` — O(metadata) to open; the id streams
    decode in one vectorized pass when the index is adopted for
    serving.  v2 JSONL artifacts parse eagerly as before;
    v1 artifacts (posting ids only) additionally need ``corpus`` to
    recompute the components — without it the load fails rather than
    silently returning an index that scores everything 0.
    ``max_clique_size`` overrides the stored bound; ``verify_payload``
    (binary only) controls the eager CRC sweep of the posting/component
    payload sections.
    """
    path = Path(file_path)
    try:
        with path.open("rb") as fh:
            head = fh.read(len(binfmt.MAGIC))
    except FileNotFoundError:
        raise StorageError(f"missing index artifact: {path}") from None
    except OSError as exc:
        raise StorageError(f"unreadable index artifact {path}: {exc}") from exc

    if head == binfmt.MAGIC:
        try:
            reader = binfmt.BinaryIndexReader(path, verify_payload=verify_payload)
        except BinaryFormatError as exc:
            raise StorageError(f"corrupt binary index artifact {path}: {exc}") from exc
        return MmapCliqueIndex(reader, correlations, max_clique_size=max_clique_size)

    meta, postings, version = _read_index_jsonl(path)
    if version == 1 and corpus is None:
        raise StorageError(
            f"index artifact {path} is format version 1 (no stored components); "
            "pass the corpus so the postings can be rescored"
        )
    bound = max_clique_size if max_clique_size is not None else meta.get("max_clique_size", 3)
    index = CliqueInvertedIndex(correlations, max_clique_size=bound)
    for posting in postings:
        index.adopt_posting(posting)
    index.set_n_objects(int(meta.get("n_objects", 0)))
    if version == 1:
        assert corpus is not None
        index.rescore(corpus)
    return index


def convert_index(
    src_path: str | Path,
    dst_path: str | Path | None = None,
    to: str | None = None,
    verify: bool = False,
) -> Path:
    """Migrate an index artifact between the v2 JSONL and v3 binary
    formats — the ``repro index convert`` engine.

    Conversion is format-level: no corpus and no correlation model are
    needed, because v2/v3 artifacts carry their build-time components
    and CorS.  v1 artifacts cannot convert (no stored components) —
    re-run ``repro index`` instead.  ``to`` defaults to the *other*
    format; ``dst_path`` defaults to the source name with the
    conventional suffix (``.bin``/``.jsonl``).  ``verify`` runs a full
    payload CRC sweep over a binary source before converting.
    """
    src = Path(src_path)
    version = index_artifact_version(src)
    if version == 1:
        raise StorageError(
            f"cannot convert {src}: format version 1 stores no components; "
            "rebuild with `repro index` instead"
        )
    src_format = "binary" if version == BINARY_INDEX_FORMAT_VERSION else "jsonl"
    if to is None:
        to = "jsonl" if src_format == "binary" else "binary"
    if to not in ("jsonl", "binary"):
        raise ValueError(f"unknown index format {to!r} (use 'binary' or 'jsonl')")
    if dst_path is None:
        dst = src.with_suffix(".jsonl" if to == "jsonl" else ".bin")
    else:
        dst = Path(dst_path)
    if dst == src:
        raise StorageError(
            f"conversion target equals the source artifact: {src} "
            "(pass an explicit destination)"
        )

    if src_format == "binary":
        try:
            with binfmt.BinaryIndexReader(src, verify_payload=verify) as reader:
                if verify:
                    reader.verify()
                postings = [
                    Posting.from_arrays(reader.key_at(slot), *_reorder(reader, slot))
                    for slot in reader.iteration_order()
                ]
                n_objects = reader.n_objects
                max_clique_size = reader.max_clique_size
        except BinaryFormatError as exc:
            raise StorageError(f"corrupt binary index artifact {src}: {exc}") from exc
    else:
        meta, postings, _version = _read_index_jsonl(src)
        n_objects = int(meta.get("n_objects", 0))
        max_clique_size = int(meta.get("max_clique_size", 3))

    try:
        if to == "jsonl":
            return _write_index_jsonl(
                dst, postings, n_objects=n_objects, max_clique_size=max_clique_size
            )
        return binfmt.write_index_file(
            dst, postings, n_objects=n_objects, max_clique_size=max_clique_size
        )
    except BinaryFormatError as exc:
        raise StorageError(f"cannot write binary index {dst}: {exc}") from exc
    except OSError as exc:
        raise StorageError(f"cannot write index artifact {dst}: {exc}") from exc


def _reorder(
    reader: "binfmt.BinaryIndexReader", slot: int
) -> tuple[float | None, list[str], list[float], list[float]]:
    """Decode one slot into ``Posting.from_arrays`` argument order."""
    ids, freq, smooth, cors = reader.read_posting(slot)
    return cors, ids, freq, smooth


def _taxonomy_nodes(taxonomy: Taxonomy) -> list[str]:
    """All nodes of a taxonomy (leaves + every ancestor)."""
    nodes: set[str] = set()
    for leaf in taxonomy.leaves():
        nodes.update(taxonomy.path_to_root(leaf))
    nodes.add(taxonomy.root)
    return sorted(nodes)
