#!/usr/bin/env python3
"""Render the phase-class figures for n = 2, 3, 4 into the current directory.

Same output every run: square, isometric cube, nested tesseract.
"""

from pathlib import Path

from toricgate import (PROJECTIONS, GatePlacement, partition_vertices,
                       render_partition_dot, render_partition_svg)

out_dir = Path(".")
for projection, n in PROJECTIONS.items():
    partition = partition_vertices(n, GatePlacement(control=1, target=2))
    svg_path = out_dir / f"partition_n{n}.svg"
    svg_path.write_text(render_partition_svg(partition), encoding="utf-8")
    dot_path = out_dir / f"partition_n{n}.dot"
    dot_path.write_text(render_partition_dot(partition), encoding="utf-8")
    print(f"n = {n} ({projection}): wrote {svg_path} and {dot_path}")

print()
print("view the .svg files in a browser; render .dot with `dot -Tpng`")
