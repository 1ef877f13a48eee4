#!/usr/bin/env bash
# Entry point of the end-to-end benchmark; run.py documents the modes.
exec python3 "$(dirname "$0")/run.py" "$@"
