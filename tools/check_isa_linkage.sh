#!/usr/bin/env sh
# ISA-linkage gate: each vector kernel source, compiled at -O0 with its
# -m flag, may define exactly one external symbol — its accessor
# (avx2_cell_kernel() / avx512_cell_kernel()).  Anything else with
# external linkage (an `inline` helper from a shared header, a template
# instantiation) would be emitted as a weak, VEX/EVEX-encoded copy that
# the linker may keep for the WHOLE program, so the portable scalar path
# could run AVX code on a CPU the dispatch calls scalar-only.  -O0 is
# where such copies survive un-inlined, so that is where to look.
# Run from anywhere (CXX defaults to g++):
#
#   sh tools/check_isa_linkage.sh
#
# Exits 1 listing the offending symbols.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cxx=${CXX:-g++}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
for variant in "avx2 -mavx2 ELPC_KERNEL_AVX2" \
               "avx512 -mavx512f ELPC_KERNEL_AVX512"; do
  set -- $variant
  obj="$work/$1.o"
  "$cxx" -std=c++20 -O0 "$2" -D"$3"=1 -I"$repo_root/src" -c \
    "$repo_root/src/core/kernels/framerate_kernel_$1.cpp" -o "$obj"
  accessor="elpc::core::kernels::$1_cell_kernel()"
  symbols=$(nm -C --defined-only --extern-only "$obj" | cut -d' ' -f3-)
  if [ "$symbols" != "$accessor" ]; then
    echo "framerate_kernel_$1.cpp: expected only $accessor, got:"
    echo "$symbols"
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "ISA objects export only their accessors"
exit "$status"
