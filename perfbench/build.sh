#!/usr/bin/env bash
# Compiles the program's main sources and the benchmark into one class
# directory, with the Scala compiler that ships in the Spark distribution.
#
#   bash perfbench/build.sh [OUT_DIR]     (run from the repository root)
#
# OUT_DIR defaults to .bench_build/classes. SPARK_HOME defaults to /opt/spark.
set -euo pipefail
out="${1:-.bench_build/classes}"
jars="${SPARK_HOME:-/opt/spark}/jars"
[ -d src/main/scala ] || { echo "build.sh: run from the repository root (src/main/scala not found)" >&2; exit 2; }
[ -d "$jars" ] || { echo "build.sh: no Spark jars at $jars" >&2; exit 2; }
rm -rf "$out" && mkdir -p "$out"
find src/main/scala perfbench/src perfbench/test -name '*.scala' | sort > "$out.sources"
java -Xss8m -Xmx2g -cp "$jars/*" scala.tools.nsc.Main -usejavacp -nowarn -d "$out" @"$out.sources"
