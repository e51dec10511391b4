// Native routines for truncvar, built on first use by _native.py, whose
// docstring lists which of the package's loops run here.
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
// The per-sample loops, window_scan, running_pairs and greedy_skeleton,
// perform the floating-point operations of their Python references in the
// same order, so the results are the same bits; the build turns off
// contraction of a*b+c into fused multiply-adds to keep it so.
//
// running_pairs builds a Python list, so it is the one routine called with
// the GIL held. It uses a handful of calls of CPython's stable ABI, declared
// below rather than taken from Python.h, so the build needs no Python
// headers: the symbols resolve at load time against the interpreter that
// loads the library.

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <system_error>

extern "C" {
struct PyObject;
PyObject* PyList_New(std::ptrdiff_t size);
int PyList_SetItem(PyObject* list, std::ptrdiff_t index, PyObject* item);  // steals item
PyObject* PyFloat_FromDouble(double value);
PyObject* PyTuple_Pack(std::ptrdiff_t size, ...);
void PyObject_GC_UnTrack(void* op);
void Py_IncRef(PyObject* op);
void Py_DecRef(PyObject* op);
int PyGC_Disable(void);  // returns whether the collector was enabled
int PyGC_Enable(void);
}

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
// for step and with the same contract, so truncvar._scan._machine calls
// either: strict running extremes, exact >= threshold tests and left-to-right
// sums. Where starts is not null, writes the window starts [0, t0, t1, ...]
// into it; where skeleton is not null, the extreme each window ends on: the
// anchor at each trigger, then the final tracked extreme (the running minimum
// if nothing triggered). Writes (up, down, direction) into totals, the
// direction in _scan's codes below, and returns the window count k. Needs
// n >= 1; starts and skeleton hold n + 1 entries (a trigger fires at most
// once per sample), and only the first k are written.
//
// approx, up and down are null together, or each holds n entries for the
// arrays of truncvar._scan.full_scan, written from the state each sample
// leaves: in a peak, approx = run_max - c/2 and up = up_total +
// ((run_max - anchor_min) - c), down = down_total; in a valley the mirror
// image; while undecided up = down = 0.0, and approx holds the band of the
// undecided window's final extreme: anchor_min + c/2 at an up trigger,
// anchor_max - c/2 at a down trigger, run_min + c/2 if nothing triggers.
int64_t window_scan(const double* values, int64_t n, double c, int64_t* starts,
                    double* skeleton, double* approx, double* up, double* down,
                    double* totals) {
    enum { SEEK = 0, UP = 1, DOWN = 2 };
    const double half = c / 2.0;
    int64_t k = 1;
    if (starts) starts[0] = 0;
    double run_min = values[0];
    double run_max = run_min;
    int phase = SEEK;
    int direction = SEEK;
    double up_total = 0.0;
    double down_total = 0.0;
    double anchor_min = 0.0;  // valley extreme the open peak regime started from
    double anchor_max = 0.0;  // peak extreme the open valley regime started from
    double seek_band = 0.0;   // approx over the undecided window, set when it ends
    int64_t seek_end = n;     // the first trigger, where the undecided window ends
    for (int64_t j = 0; j < n; ++j) {
        const double v = values[j];
        if (phase == SEEK) {
            if (v < run_min) run_min = v;
            if (v > run_max) run_max = v;
            if (v - run_min >= c) {
                direction = phase = UP;
                anchor_min = run_min;
                seek_band = anchor_min + half;
                seek_end = j;
                if (skeleton) skeleton[k - 1] = anchor_min;
                if (starts) starts[k] = j;
                ++k;
                run_max = v;
            } else if (run_max - v >= c) {
                direction = phase = DOWN;
                anchor_max = run_max;
                seek_band = anchor_max - half;
                seek_end = j;
                if (skeleton) skeleton[k - 1] = anchor_max;
                if (starts) starts[k] = j;
                ++k;
                run_min = v;
            }
        } else if (phase == UP) {
            if (v > run_max) run_max = v;
            if (run_max - v >= c) {
                up_total = up_total + ((run_max - anchor_min) - c);
                anchor_max = run_max;
                if (skeleton) skeleton[k - 1] = anchor_max;
                if (starts) starts[k] = j;
                ++k;
                phase = DOWN;
                run_min = v;
            }
        } else {
            if (v < run_min) run_min = v;
            if (v - run_min >= c) {
                down_total = down_total + ((anchor_max - run_min) - c);
                anchor_min = run_min;
                if (skeleton) skeleton[k - 1] = anchor_min;
                if (starts) starts[k] = j;
                ++k;
                phase = UP;
                run_max = v;
            }
        }
        if (!approx) continue;
        if (phase == UP) {
            approx[j] = run_max - half;
            up[j] = up_total + ((run_max - anchor_min) - c);
            down[j] = down_total;
        } else if (phase == DOWN) {
            approx[j] = run_min + half;
            up[j] = up_total;
            down[j] = down_total + ((anchor_max - run_min) - c);
        } else {
            up[j] = 0.0;
            down[j] = 0.0;
        }
    }
    if (approx) {
        if (k == 1) seek_band = run_min + half;
        for (int64_t j = 0; j < seek_end; ++j) approx[j] = seek_band;
    }
    if (phase == UP) up_total = up_total + ((run_max - anchor_min) - c);
    else if (phase == DOWN) down_total = down_total + ((anchor_max - run_min) - c);
    if (skeleton) skeleton[k - 1] = phase == UP ? run_max : run_min;
    totals[0] = up_total;
    totals[1] = down_total;
    totals[2] = direction;
    return k;
}

// The list of truncvar.regime_detector.running_extremes: one (label,
// extreme) tuple per sample of values[0:n], over the k windows that begin at
// starts[0] = 0 < starts[1] < ... < starts[k - 1] < n. Window 0 is labelled
// seek; the windows alternate between tracking the running maximum (up) and
// the running minimum (down), and window 0 tracks the maximum when max_first
// is set. The extreme restarts at each window start and moves only on a
// strict > or <, so a tie keeps the earlier sample, as the scan does (this
// decides the sign of a zero extreme). A pair equal in label and in bits to
// the one before it reuses that tuple. Every tuple is untracked from the
// cyclic GC: a tuple of a str and a float cannot be part of a cycle, and
// CPython would untrack it at its next collection anyway. For the same
// reason the collector is paused while the list is built, since each new
// tuple would count toward its next run; the caller's setting is restored
// on every return. Returns a new reference, or null with a Python error set
// when an allocation fails.
PyObject* running_pairs(const double* values, int64_t n, const int64_t* starts, int64_t k,
                        int64_t max_first, PyObject* seek, PyObject* up, PyObject* down) {
    const int gc_was_enabled = PyGC_Disable();
    PyObject* pair = nullptr;  // the last tuple made; the list holds it
    PyObject* pair_label = nullptr;
    uint64_t pair_bits = 0;
    PyObject* out = PyList_New(n);
    if (!out) goto done;
    for (int64_t w = 0; w < k; ++w) {
        const bool track_max = (w % 2 == 0) == (max_first != 0);
        PyObject* label = w == 0 ? seek : track_max ? up : down;
        const int64_t end = w + 1 < k ? starts[w + 1] : n;
        double extreme = values[starts[w]];
        for (int64_t j = starts[w]; j < end; ++j) {
            const double v = values[j];
            if (track_max ? v > extreme : v < extreme) extreme = v;
            uint64_t bits;
            std::memcpy(&bits, &extreme, sizeof bits);
            if (pair && label == pair_label && bits == pair_bits) {
                Py_IncRef(pair);
            } else {
                PyObject* number = PyFloat_FromDouble(extreme);
                pair = number ? PyTuple_Pack(2, label, number) : nullptr;
                if (number) Py_DecRef(number);
                if (!pair) goto fail;
                PyObject_GC_UnTrack(pair);
                pair_label = label;
                pair_bits = bits;
            }
            if (PyList_SetItem(out, j, pair) < 0) goto fail;
        }
    }
    goto done;
fail:  // the failed call left a Python error set
    Py_DecRef(out);  // the list frees what it holds, nulls included
    out = nullptr;
done:
    if (gc_was_enabled) PyGC_Enable();
    return out;
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
