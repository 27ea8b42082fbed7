"""Record the reference SHA-256 of every ``fold`` catalogue output.

Run from the root of a checkout, only when the machine output of
``rule``, ``nabla`` or ``weights`` is meant to change::

    python3 perfbench/record_digests.py

Every output must pass its structural check before its digest is kept.
"""

import json
import shutil

import run  # pins the BLAS threads before numpy loads
import workloads


def main():
    symquad = run.import_symquad()
    workdir = run.WORK / "record-digests"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digests = {}
    try:
        for request in workloads.fold_catalogue(str(workdir), str(workdir / "out.json")):
            _, rc, err = run.run_request(symquad, request)
            reason = run.check_request(request, rc, err, {request.digest_key: None})
            out = request.argv[request.argv.index("--out") + 1]
            if reason is not None and not reason.startswith("SHA-256"):
                raise SystemExit(f"{request.digest_key}: {reason}")
            digests[request.digest_key] = run.checks.sha256_file(out)
            print(request.digest_key, digests[request.digest_key], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "digests.json", "w", encoding="utf-8") as handle:
        json.dump({"fold": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
