#!/bin/sh
# Runs every workload, untraced and then traced, each in its own process.
#   sh bench/run_all.sh [seed] [seconds]      (from the repository root)
set -e
seed=${1:-0}
seconds=${2:-20}
for workload in ingest_preprocess_gcv cv_gru_full matrix_predict; do
    for trace in 0 1; do
        python3 bench/bench.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
