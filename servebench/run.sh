#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it; arguments are
# passed on (see servebench/README.md). Run from the repository root.
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -u
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# Keep every build artefact inside the checkout: no shared dune cache.
dune build --root . --build-dir .bench_build --cache disabled --display quiet \
  ./servebench/main.exe 1>&2 || exit 1
exec .bench_build/default/servebench/main.exe "$@"
