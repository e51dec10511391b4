// Native CSV codec for truncvar.pathio, built on first use by _native.py.
//
// format_rows writes rows of float64 columns in the layout of Python's repr;
// parse_rows reads the rows of a path file. Both rest on the C++17
// <charconv> routines: std::to_chars gives the shortest digits that read
// back to the same double (the digits repr prints), and std::from_chars
// rounds correctly (as float() does). The Python routes in pathio stay the
// reference: parse_rows accepts a strict subset of what the line parser
// accepts, returns the same bits on it, and returns -1 on anything else so
// that the caller re-reads the file with the line parser.

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

}  // extern "C"
