"""Out-of-core proof: encode+verify a corpus larger than the object store,
with a mid-run SIGKILL + resume, on the table store. Phases:
  gen     — parallel-generate the corpus (deterministic Philox chunks)
  kill    — start compress_table in a subprocess, SIGKILL it mid-run
  resume  — rerun compress_table (must skip committed fragments: their
            manifest records and part files stay untouched), then
            verify_table_store bit-exact against the corpus
Run:  PYTHONPATH=. python tools/ooc_proof.py all   (OOC_ROWS sets the size)
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import time

N_ROWS = int(os.environ.get("OOC_ROWS", str(2 * 1024 * 1024)))  # ~1G tokens
ROWS_PER_FILE = 16384
CORPUS = f"/tmp/ooc/tokens_{N_ROWS}"
OUT = "/tmp/ooc/encoded"
NCPU = min(8, os.cpu_count() or 1)
OBJ_STORE = 512 << 20


def init():
    import ray

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             logging_level="ERROR", object_store_memory=OBJ_STORE)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def gen():
    ray = init()
    os.makedirs(CORPUS, exist_ok=True)

    @ray.remote(num_cpus=1)
    def write_one(start, n, path):
        import pyarrow.parquet as pq

        from fsst_like_ray.sources.tokens import tokens_table

        if os.path.exists(path):
            return 0
        t = tokens_table(n, seed=42, start_row=start)
        pq.write_table(t, path + ".tmp", row_group_size=2048)
        os.replace(path + ".tmp", path)
        return t.num_rows

    refs = []
    for start in range(0, N_ROWS, ROWS_PER_FILE):
        n = min(ROWS_PER_FILE, N_ROWS - start)
        fp = os.path.join(CORPUS, f"part-{start:010d}-{n}.parquet")
        refs.append(write_one.remote(start, n, fp))
    t0 = time.time()
    ray.get(refs)
    size = sum(
        os.path.getsize(os.path.join(CORPUS, f)) for f in os.listdir(CORPUS)
    )
    print(f"gen done: {N_ROWS} rows, {size/2**30:.2f} GiB parquet, "
          f"{time.time()-t0:.0f}s")
    ray.shutdown()


def encode():
    init()
    from fsst_like_ray.pipelines.tablestore import compress_table

    t0 = time.time()
    stats = compress_table(CORPUS, OUT, fragments_per_round=32)
    print(json.dumps({"phase": "encode", "sec": round(time.time() - t0, 1),
                      **stats}))


def kill_phase():
    shutil.rmtree(OUT, ignore_errors=True)
    p = subprocess.Popen([sys.executable, __file__, "encode"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    # wait until some fragments are committed (one .json per fragment in
    # _manifest/), then SIGKILL the whole tree
    mdir = os.path.join(OUT, "_manifest")
    deadline = time.time() + 900
    committed = 0
    while time.time() < deadline:
        if os.path.isdir(mdir):
            committed = sum(1 for n in os.listdir(mdir) if n.endswith(".json"))
            if committed >= 20:
                break
        if p.poll() is not None:
            break
        time.sleep(1)
    if p.poll() is None:
        p.kill()
        subprocess.run(["ray", "stop", "--force"], capture_output=True)
        time.sleep(3)
    print(f"killed with ~{committed} fragments committed "
          f"(of {N_ROWS // ROWS_PER_FILE})")


def _committed_files(recs: dict) -> dict[str, dict[str, int]]:
    """Per committed fragment key, the mtime of its manifest record and of
    each of its part files — a resume that rewrites any of them shows."""
    from fsst_like_ray.pipelines.tablestore import _fragment_parts

    out = {}
    for rec in recs.values():
        key = rec["frag_key"]
        paths = [os.path.join(OUT, "_manifest", f"{key}.json")]
        paths += _fragment_parts(os.path.join(OUT, "data"), key)
        out[key] = {p: os.stat(p).st_mtime_ns for p in paths}
    return out


def resume():
    init()
    from fsst_like_ray.pipelines.tablestore import (
        compress_table, verify_table_store,
    )
    from fsst_like_ray.state.manifest import Manifest

    pre = Manifest(OUT).completed()
    before = _committed_files(pre)
    t0 = time.time()
    stats = compress_table(CORPUS, OUT, fragments_per_round=32)
    enc_sec = time.time() - t0
    after = _committed_files(pre)
    rewritten = [k for k in before if after[k] != before[k]]
    t0 = time.time()
    v = verify_table_store(CORPUS, OUT)
    ver_sec = time.time() - t0
    assert v["ok"] and v["rows"] == N_ROWS, v
    assert not rewritten, rewritten
    print(json.dumps({
        "phase": "resume+verify",
        "fragments_already_committed": len(pre),
        "fragments_rewritten": len(rewritten),
        "fragments_total": stats["fragments"],
        "rows": stats["rows"],
        "plain_bytes": stats["plain_bytes"],
        "encoded_bytes": stats["encoded_bytes"],
        "ratio": round(stats["plain_bytes"] / stats["encoded_bytes"], 3),
        "resume_encode_sec": round(enc_sec, 1),
        "verify_sec": round(ver_sec, 1),
        "object_store_cap_bytes": OBJ_STORE,
        "verify_ok": v["ok"],
        "verify_rows": v["rows"],
    }))


if __name__ == "__main__":
    phase = sys.argv[1] if len(sys.argv) > 1 else "all"
    if phase == "gen":
        gen()
    elif phase == "encode":
        encode()
    elif phase == "kill":
        kill_phase()
    elif phase == "resume":
        resume()
    else:
        for ph in ("gen", "kill", "resume"):
            r = subprocess.run([sys.executable, __file__, ph])
            if r.returncode != 0:
                sys.exit(r.returncode)
