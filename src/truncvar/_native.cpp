// Native routines for truncvar, built on first use by _native.py.
//
// The CSV codec for truncvar.pathio: format_rows writes rows of float64
// columns in the layout of Python's repr; parse_rows reads the rows of a
// path file. Both rest on the C++17 <charconv> routines: std::to_chars gives
// the shortest digits that read back to the same double (the digits repr
// prints), and std::from_chars rounds correctly (as float() does). The
// Python routes in pathio stay the reference: parse_rows accepts a strict
// subset of what the line parser accepts, returns the same bits on it, and
// returns -1 on anything else so that the caller re-reads the file with the
// line parser.
//
// Three per-sample loops: window_scan is the trigger state machine of
// truncvar._scan.full_scan and regime_scan, derive_scan writes the arrays of
// full_scan from its trigger indices, and greedy_skeleton the breakpoints of
// truncvar.optimal_approx.step_skeleton. Each performs the floating-point
// operations of its numpy or Python reference in the same order, so the
// results are the same bits; the build turns off contraction of a*b+c into
// fused multiply-adds to keep it so.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <system_error>

namespace {

// repr(x): the shortest round-trip digits d1 d2 ... dk with the decimal
// point after position decpt; exponent form when decpt <= -4 or decpt > 16
// ("1e+16", "1.5e-05"), else positional with ".0" on integral values.
char* put_repr(char* out, double x) {
    if (std::isnan(x)) {
        std::memcpy(out, "nan", 3);
        return out + 3;
    }
    char sci[32];
    char* end = std::to_chars(sci, sci + sizeof sci, x, std::chars_format::scientific).ptr;
    if (std::isinf(x)) {  // "inf" or "-inf", as repr writes them
        std::memcpy(out, sci, end - sci);
        return out + (end - sci);
    }
    // sci is [-]d[.ddd]e(+|-)XX[X]
    const char* p = sci;
    if (*p == '-') *out++ = *p++;
    const char* body = p;
    char digits[20];
    int nd = 0;
    digits[nd++] = *p++;
    if (*p == '.')
        for (++p; *p != 'e'; ++p) digits[nd++] = *p;
    bool negative_exp = p[1] == '-';
    int exp10 = 0;
    for (p += 2; p < end; ++p) exp10 = 10 * exp10 + (*p - '0');
    int decpt = (negative_exp ? -exp10 : exp10) + 1;
    if (decpt <= -4 || decpt > 16) {  // to_chars already writes repr's exponent
        std::memcpy(out, body, end - body);
        return out + (end - body);
    }
    if (decpt <= 0) {
        *out++ = '0';
        *out++ = '.';
        for (int i = decpt; i < 0; ++i) *out++ = '0';
        std::memcpy(out, digits, nd);
        return out + nd;
    }
    if (decpt < nd) {
        std::memcpy(out, digits, decpt);
        out += decpt;
        *out++ = '.';
        std::memcpy(out, digits + decpt, nd - decpt);
        return out + (nd - decpt);
    }
    std::memcpy(out, digits, nd);
    out += nd;
    for (int i = nd; i < decpt; ++i) *out++ = '0';
    *out++ = '.';
    *out++ = '0';
    return out;
}

bool is_blank(char ch) { return ch == ' ' || ch == '\t'; }
bool is_digit(char ch) { return ch >= '0' && ch <= '9'; }

const char* skip_blanks(const char* p, const char* end) {
    while (p < end && is_blank(*p)) ++p;
    return p;
}

// The end of a line at p: past "\n" or "\r\n", end at the end of the text,
// nullptr if p holds anything else (a lone "\r" included).
const char* line_end(const char* p, const char* end) {
    if (p == end) return end;
    if (*p == '\n') return p + 1;
    if (*p == '\r' && p + 1 < end && p[1] == '\n') return p + 2;
    return nullptr;
}

// One number that float() reads to the same bits: an optional '-', then
// digits with an optional '.' and exponent. nullptr on anything else: a
// leading '+', inf/nan spellings, or a value out of float64's range (float()
// would give inf or 0.0; the line parser settles those).
const char* number(const char* p, const char* end, double* out) {
    const char* q = p < end && *p == '-' ? p + 1 : p;
    if (q == end || !(is_digit(*q) || *q == '.')) return nullptr;
    auto r = std::from_chars(p, end, *out, std::chars_format::general);
    return r.ec == std::errc() ? r.ptr : nullptr;
}

const char kBom[] = "\xef\xbb\xbf";
const char kHeader[] = "time,value";

}  // namespace

extern "C" {

// Writes rows [lo, hi) of the ncols columns to out as "x,y,...\n" lines and
// returns the number of bytes written; out needs 25 bytes per field.
int64_t format_rows(const double* const* cols, int64_t ncols, int64_t lo, int64_t hi,
                    char* out) {
    char* o = out;
    for (int64_t i = lo; i < hi; ++i) {
        for (int64_t j = 0; j < ncols; ++j) {
            o = put_repr(o, cols[j][i]);
            *o++ = j + 1 < ncols ? ',' : '\n';
        }
    }
    return o - out;
}

// Parses the path file held in text[0:len] into times and values, which
// hold cap entries. Accepted: a UTF-8 byte-order mark, rows of two numbers
// separated by ',', blanks (space, tab) around each field, blank lines, a
// "time,value" header on line 1, and "\n" or "\r\n" line ends. Returns the
// number of rows, or -1 on anything else.
int64_t parse_rows(const char* text, int64_t len, double* times, double* values, int64_t cap) {
    const char* p = text;
    const char* end = text + len;
    if (len >= 3 && std::memcmp(p, kBom, 3) == 0) p += 3;
    int64_t n = 0;
    for (bool first = true; p < end; first = false) {
        p = skip_blanks(p, end);
        if (const char* next = line_end(p, end)) {  // a blank line
            p = next;
            continue;
        }
        if (first && end - p >= 10 && std::memcmp(p, kHeader, 10) == 0) {
            const char* next = line_end(skip_blanks(p + 10, end), end);
            if (next) {
                p = next;
                continue;
            }
        }
        if (n == cap || !(p = number(p, end, &times[n]))) return -1;
        p = skip_blanks(p, end);
        if (p == end || *p != ',') return -1;
        p = skip_blanks(p + 1, end);
        if (!(p = number(p, end, &values[n]))) return -1;
        if (!(p = line_end(skip_blanks(p, end), end))) return -1;
        ++n;
    }
    return n;
}

// The trigger state machine of truncvar._scan._window_scan at level c, step
// for step: strict running extremes, exact >= threshold tests and left-to-right
// sums. Writes the window starts [0, t0, t1, ...] into starts; where skeleton
// is not null, the extreme each window ends on: the anchor at each trigger,
// then the final tracked extreme (the running minimum if nothing triggered).
// Writes (up, down, direction) into totals, the direction in _scan's codes
// below, and returns the window count k. Needs n >= 1; starts and skeleton
// hold n + 1 entries (a trigger fires at most once per sample), and only the
// first k are written.
int64_t window_scan(const double* values, int64_t n, double c, int64_t* starts,
                    double* skeleton, double* totals) {
    enum { SEEK = 0, UP = 1, DOWN = 2 };
    int64_t k = 0;
    starts[k++] = 0;
    double run_min = values[0];
    double run_max = run_min;
    int phase = SEEK;
    int direction = SEEK;
    double up_total = 0.0;
    double down_total = 0.0;
    double anchor_min = 0.0;  // valley extreme the open peak regime started from
    double anchor_max = 0.0;  // peak extreme the open valley regime started from
    for (int64_t j = 0; j < n; ++j) {
        const double v = values[j];
        if (phase == SEEK) {
            if (v < run_min) run_min = v;
            if (v > run_max) run_max = v;
            if (v - run_min >= c) {
                direction = phase = UP;
                anchor_min = run_min;
                if (skeleton) skeleton[k - 1] = anchor_min;
                starts[k++] = j;
                run_max = v;
            } else if (run_max - v >= c) {
                direction = phase = DOWN;
                anchor_max = run_max;
                if (skeleton) skeleton[k - 1] = anchor_max;
                starts[k++] = j;
                run_min = v;
            }
        } else if (phase == UP) {
            if (v > run_max) run_max = v;
            if (run_max - v >= c) {
                up_total = up_total + ((run_max - anchor_min) - c);
                anchor_max = run_max;
                if (skeleton) skeleton[k - 1] = anchor_max;
                starts[k++] = j;
                phase = DOWN;
                run_min = v;
            }
        } else {
            if (v < run_min) run_min = v;
            if (v - run_min >= c) {
                down_total = down_total + ((anchor_max - run_min) - c);
                anchor_min = run_min;
                if (skeleton) skeleton[k - 1] = anchor_min;
                starts[k++] = j;
                phase = UP;
                run_max = v;
            }
        }
    }
    if (phase == UP) up_total = up_total + ((run_max - anchor_min) - c);
    else if (phase == DOWN) down_total = down_total + ((anchor_max - run_min) - c);
    if (skeleton) skeleton[k - 1] = phase == UP ? run_max : run_min;
    totals[0] = up_total;
    totals[1] = down_total;
    totals[2] = direction;
    return k;
}

// The per-sample arrays of the alternating scan at level c. starts holds the
// k window starts [0, t0, t1, ...] that the trigger kernel returns: window w
// covers [starts[w], starts[w + 1]) (the last one runs to n), window 0 is the
// undecided one, and the windows alternate between tracking the maximum and
// the minimum, window 0 tracking the maximum when first_tracks_max is set.
// The running extreme of a window keeps the first of tied values (strict
// comparisons), which decides the sign of a +-0.0 extreme. Per sample:
//   approx = extreme - c/2 where the maximum is tracked, extreme + c/2 where
//            the minimum is, and over the undecided window the value its
//            final extreme gives;
//   up     = closed_up + ((extreme - anchor) - c) in a peak window (w >= 1,
//            tracking the maximum), else closed_up; down likewise with
//            ((anchor - extreme) - c) in a valley window;
// where the anchor is the final extreme of the window before, and closed_up
// (closed_down) is the left-to-right sum of the same terms at the final
// extreme of every peak (valley) window closed before this one (numpy's
// cumsum also adds a +0.0 for each other window, which changes no partial
// sum, as none is -0.0). Nothing is decided here: the triggers come in
// through starts.
void derive_scan(const double* values, int64_t n, const int64_t* starts, int64_t k,
                 int first_tracks_max, double c, double* approx, double* up, double* down) {
    const double half = c / 2.0;
    double closed_up = 0.0;
    double closed_down = 0.0;
    double anchor = 0.0;
    for (int64_t w = 0; w < k; ++w) {
        const int64_t lo = starts[w];
        const int64_t hi = w + 1 < k ? starts[w + 1] : n;
        const bool tracks_max = (w % 2 == 0) == (first_tracks_max != 0);
        double extreme = values[lo];
        if (w == 0) {  // undecided: the band holds the value of the final extreme
            for (int64_t j = lo; j < hi; ++j) {
                const double v = values[j];
                if (tracks_max ? v > extreme : v < extreme) extreme = v;
                up[j] = 0.0;
                down[j] = 0.0;
            }
            const double seek = tracks_max ? extreme - half : extreme + half;
            for (int64_t j = lo; j < hi; ++j) approx[j] = seek;
        } else if (tracks_max) {
            for (int64_t j = lo; j < hi; ++j) {
                if (values[j] > extreme) extreme = values[j];
                approx[j] = extreme - half;
                up[j] = closed_up + ((extreme - anchor) - c);
                down[j] = closed_down;
            }
            closed_up = closed_up + ((extreme - anchor) - c);
        } else {
            for (int64_t j = lo; j < hi; ++j) {
                if (values[j] < extreme) extreme = values[j];
                approx[j] = extreme + half;
                up[j] = closed_up;
                down[j] = closed_down + ((anchor - extreme) - c);
            }
            closed_down = closed_down + ((anchor - extreme) - c);
        }
        anchor = extreme;
    }
}

// The greedy breakpoints of a step skeleton: index 0, then every index whose
// value differs from the value last kept by strictly more than half. Writes
// them to keep, which holds n entries, and returns how many there are.
int64_t greedy_skeleton(const double* values, int64_t n, double half, int64_t* keep) {
    int64_t count = 0;
    keep[count++] = 0;
    double held = values[0];
    for (int64_t j = 1; j < n; ++j) {
        if (std::fabs(values[j] - held) > half) {
            keep[count++] = j;
            held = values[j];
        }
    }
    return count;
}

}  // extern "C"
