#!/usr/bin/env python3
"""The half-disk of triangle shapes.

Triangles map to points (I/2, 2*area) of an abstract plane, I = a^2+b^2+c^2.
Fixing a and b pins the point to a circle; fixing only s = a^2 + b^2 pins
it inside a half-disk whose boundary is the isosceles (a = b) circle. The
tangent line from the origin has slope 1/sqrt(3) and touches the disk at
the equilateral point: that tangency is the Weitzenbock inequality.

Writes the figure dataset to half_disk_figure.csv; if matplotlib is
importable, also renders half_disk_figure.png.
"""
import math

from wkit import (
    TANGENT_SLOPE,
    HalfDisk,
    Triangle,
    circle_of,
    circle_residual,
    classify,
    figure_dataset,
    halfdisk_contains,
    shape_point,
    tangent_point,
)

print("=" * 72)
print("1. Triangles as shape-plane points")
print("=" * 72)
for sides in [(3, 4, 5), (1, 1, 1), (2, 2, 3), (2, 3, 4)]:
    t = Triangle(*sides)
    p = shape_point(t)
    c = circle_of(t.a, t.b)
    d = HalfDisk(t.a * t.a + t.b * t.b)
    print(f"  sides {sides}: point ({p.x:.6g}, {p.y:.6g})")
    print(f"    on its circle (center {c.center_x:.6g}, radius {c.radius:.6g}): "
          f"residual = {circle_residual(p, c):.2e}")
    print(f"    inside half-disk for s = {d.center_x:.6g}: "
          f"{halfdisk_contains(p, d, tol=1e-9 * d.radius**2)}")
    print(f"    slope y/x = {p.y / p.x:.9f} vs tangent slope {TANGENT_SLOPE:.9f}")
    print(f"    classification: {classify(t)}")

print()
print("=" * 72)
print("2. The tangent point is the equilateral triangle")
print("=" * 72)
s = 2.0
tp = tangent_point(HalfDisk(s))
p = shape_point(Triangle(1, 1, 1))
print(f"  tangent point for s = {s}: ({tp.x}, {tp.y})")
print(f"  shape point of (1,1,1):  ({p.x}, {p.y})")
print(f"  tan(pi/6) = 1/sqrt(3) = {TANGENT_SLOPE}")

print()
print("=" * 72)
print("3. Figure dataset")
print("=" * 72)
rows = list(figure_dataset(2.0, 200))
with open("half_disk_figure.csv", "w", encoding="utf-8") as fh:
    fh.write("series,x,y\n")
    fh.writelines("%s,%r,%r\n" % row for row in rows)
series = sorted({r[0] for r in rows})
print(f"  wrote half_disk_figure.csv: {len(rows)} points, series = {series}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("  matplotlib not available; skipping the rendered figure")
else:
    fig, ax = plt.subplots(figsize=(8, 5))
    for name in series:
        xs = [x for s_, x, _ in rows if s_ == name]
        ys = [y for s_, _, y in rows if s_ == name]
        if name in ("T", "omega"):
            ax.plot(xs, ys, "o", label=name)
        else:
            ax.plot(xs, ys, lw=1, label=name)
    ax.set_xlabel("I/2")
    ax.set_ylabel("2*area")
    ax.set_aspect("equal")
    ax.legend(fontsize=7)
    fig.savefig("half_disk_figure.png", dpi=150, bbox_inches="tight")
    print("  rendered half_disk_figure.png")
