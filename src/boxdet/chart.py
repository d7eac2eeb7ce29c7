"""Static SVG line chart of an experiment sweep.

Direct string templating: the output is a self-contained SVG document with
no external references.  Four series: theoretical curves as lines,
empirical rates as markers.
"""

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 50, 55
BLUE, RED = "#1f77b4", "#d62728"

# (legend label, colour, mark, value of a row), in plot and legend order.
SERIES = (
    ("Theo. P_R^BB", BLUE, "solid", lambda row: row.theo_p_bb),
    ("Theo. P_R^BR", RED, "dashed",
     lambda row: None if row.theo_p_br is None else row.theo_p_br.value),
    ("Exp. P_R^BB", BLUE, "circle", lambda row: row.emp_p_bb.value),
    ("Exp. P_R^BR", RED, "square", lambda row: row.emp_p_br.value),
)
LINES = ("solid", "dashed")  # the marks drawn as a line through the points


def _y_px(p):
    return MARGIN_T + (1.0 - p) * (HEIGHT - MARGIN_T - MARGIN_B)


def _mark(mark, colour, points):
    """SVG elements of one series: a line through the points, or a marker
    on each point."""
    if mark in LINES:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        dash = ' stroke-dasharray="7,4"' if mark == "dashed" else ""
        return [f'<polyline fill="none" stroke="{colour}" stroke-width="1.8"{dash} '
                f'points="{pts}"/>']
    style = f'fill="none" stroke="{colour}" stroke-width="1.5"/>'
    if mark == "circle":
        return [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" {style}' for x, y in points]
    return [f'<rect x="{x - 3.5:.2f}" y="{y - 3.5:.2f}" width="7" height="7" {style}'
            for x, y in points]


def render_chart(rows) -> str:
    """Render experiment rows (ascending sigma) as an SVG document."""
    sigmas = [row.sigma for row in rows]
    lo = min(sigmas)
    span = (max(sigmas) - lo) or 1.0

    def to_px(s):
        return MARGIN_L + (s - lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="15">'
        "Average success probabilities versus σ</text>",
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for k in range(6):
        p = k / 5.0
        y = _y_px(p)
        parts += [
            f'<line x1="{x0 - 4}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>',
            f'<line x1="{x0}" y1="{y:.2f}" x2="{x1}" y2="{y:.2f}" '
            'stroke="lightgray" stroke-width="0.5"/>',
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{p:.1f}</text>',
        ]
    for s in sigmas:
        x = to_px(s)
        parts += [
            f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 4}" stroke="black"/>',
            f'<text x="{x:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{s:g}</text>',
        ]
    parts += [
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">σ</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">'
        "Average success probability</text>",
    ]

    # A series with no value in some row is neither drawn nor listed.
    legend, lx = [], x0 + 14
    for label, colour, mark, value in SERIES:
        values = [value(row) for row in rows]
        if None in values:
            continue
        parts += _mark(mark, colour, [(to_px(s), _y_px(v)) for s, v in zip(sigmas, values)])
        y = y1 + 10 + 18 * (len(legend) // 2)  # a glyph and a label per series
        glyph = [(lx, y), (lx + 26, y)] if mark in LINES else [(lx + 13, y)]
        legend += _mark(mark, colour, glyph)
        legend.append(f'<text x="{lx + 34}" y="{y + 4}" font-family="sans-serif" '
                      f'font-size="11">{label}</text>')
    return "\n".join(parts + legend + ["</svg>"]) + "\n"
