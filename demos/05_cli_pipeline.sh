#!/bin/sh
# Full command-line pipeline: generate a benchmark, train, evaluate,
# classify new documents and inspect the checkpoint.
#
# Run: sh demos/05_cli_pipeline.sh   (about 3 s on 2 cores, writes to a temp directory)
set -e

DIR=$(mktemp -d)
echo "working in $DIR"

cat > "$DIR/spec.json" <<'EOF'
{"level_sizes": [2, 4], "docs_per_leaf": 20, "doc_length": 15,
 "keywords_per_doc": 2, "leaf_vocab_size": 10, "noise_rate": 0.1,
 "seed": 5, "embedding_dim": 8}
EOF

cat > "$DIR/config.json" <<'EOF'
{"k": 8, "g": 32, "d_L": 32, "epochs": 10, "batch_size": 8,
 "learning_rate": 0.01, "seed": 5, "early_stop_patience": 10}
EOF

ahmca gen-synth --spec "$DIR/spec.json" --out-dir "$DIR/data"

# hold out every fifth record for validation
awk 'NR % 5 != 0' "$DIR/data/corpus.jsonl" > "$DIR/train.jsonl"
awk 'NR % 5 == 0' "$DIR/data/corpus.jsonl" > "$DIR/val.jsonl"

ahmca train \
  --config "$DIR/config.json" \
  --train "$DIR/train.jsonl" --val "$DIR/val.jsonl" \
  --taxonomy "$DIR/data/taxonomy.json" \
  --embeddings "$DIR/data/embeddings.txt" \
  --out "$DIR/model.bin" --history "$DIR/history.csv"

ahmca eval --model "$DIR/model.bin" --data "$DIR/val.jsonl" --k 1,3

# strip the labels off a validation record and classify it
head -1 "$DIR/val.jsonl" \
  | python3 -c 'import json,sys; r=json.load(sys.stdin); r.pop("labels"); print(json.dumps(r))' \
  > "$DIR/query.jsonl"
ahmca predict --model "$DIR/model.bin" --input "$DIR/query.jsonl" --top 3

ahmca inspect --model "$DIR/model.bin"

echo "done; artifacts left in $DIR"
