#!/bin/sh
# Full command-line workflow: generate a table, train from a config file,
# then evaluate the checkpoint and print the language report.
#
# Run from the repository root:  sh demos/cli_workflow.sh
# (`python3 -m cellang.cli` is the `cellang` command; it runs with the
# package installed or with PYTHONPATH=src)
set -e

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# No key sets the class count or the feature width: train reads both off
# the table.
cat > "$work/run.cfg" <<'EOF'
game.variant=sender-sees-all
game.vocab_size=8
game.embed_dim=4
game.conv_filters=3
game.conv_width=2
train.seed=0
train.max_epochs=5
train.episodes_per_epoch=200
EOF

python3 -m cellang.cli gen-data --counts 120,120,120 --labels a,b,c \
    --feature-dim 6 --delta 4.0 --seed 0 --out "$work/cells.csv"

python3 -m cellang.cli train --config "$work/run.cfg" \
    --data "$work/cells.csv" --out "$work/run"

python3 -m cellang.cli eval --checkpoint "$work/run/checkpoint.npz" \
    --data "$work/cells.csv" --split test --episodes 300 --seed 1 \
    --out "$work/eval"

echo "--- training history -------------------------------------"
cat "$work/run/history.csv"
echo "--- language report --------------------------------------"
cat "$work/eval/report.txt"
