#include "strsim/phonetic.h"

#include <cctype>

#include <algorithm>

namespace snaps {

namespace {

/// Uppercases and strips non-alphabetic characters.
std::string CleanAlpha(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char raw : name) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalpha(c)) out.push_back(static_cast<char>(std::toupper(c)));
  }
  return out;
}

char SoundexDigit(char c) {
  switch (c) {
    case 'B':
    case 'F':
    case 'P':
    case 'V':
      return '1';
    case 'C':
    case 'G':
    case 'J':
    case 'K':
    case 'Q':
    case 'S':
    case 'X':
    case 'Z':
      return '2';
    case 'D':
    case 'T':
      return '3';
    case 'L':
      return '4';
    case 'M':
    case 'N':
      return '5';
    case 'R':
      return '6';
    default:
      return '0';  // Vowels and H/W/Y.
  }
}

bool IsVowel(char c) {
  return c == 'A' || c == 'E' || c == 'I' || c == 'O' || c == 'U';
}

void ReplacePrefix(std::string* s, std::string_view from,
                   std::string_view to) {
  if (s->rfind(from, 0) == 0) {
    s->replace(0, from.size(), to);
  }
}

void ReplaceSuffix(std::string* s, std::string_view from,
                   std::string_view to) {
  if (s->size() >= from.size() &&
      s->compare(s->size() - from.size(), from.size(), from) == 0) {
    s->resize(s->size() - from.size());
    s->append(to);
  }
}

}  // namespace

std::string Soundex(std::string_view name) {
  const std::string clean = CleanAlpha(name);
  if (clean.empty()) return "";
  std::string code;
  code.push_back(clean[0]);
  char prev_digit = SoundexDigit(clean[0]);
  for (size_t i = 1; i < clean.size() && code.size() < 4; ++i) {
    const char c = clean[i];
    const char digit = SoundexDigit(c);
    if (digit != '0' && digit != prev_digit) {
      code.push_back(digit);
    }
    // H and W do not reset the previous digit; vowels do.
    if (c != 'H' && c != 'W') prev_digit = digit;
  }
  while (code.size() < 4) code.push_back('0');
  return code;
}

std::string Nysiis(std::string_view name) {
  std::string s = CleanAlpha(name);
  if (s.empty()) return "";

  // Prefix transformations.
  ReplacePrefix(&s, "MAC", "MCC");
  ReplacePrefix(&s, "KN", "NN");
  ReplacePrefix(&s, "K", "C");
  ReplacePrefix(&s, "PH", "FF");
  ReplacePrefix(&s, "PF", "FF");
  ReplacePrefix(&s, "SCH", "SSS");
  // Suffix transformations.
  ReplaceSuffix(&s, "EE", "Y");
  ReplaceSuffix(&s, "IE", "Y");
  for (const char* suffix : {"DT", "RT", "RD", "NT", "ND"}) {
    ReplaceSuffix(&s, suffix, "D");
  }

  std::string code;
  code.push_back(s[0]);
  for (size_t i = 1; i < s.size(); ++i) {
    char c = s[i];
    // Letter-by-letter rules (simplified canonical NYSIIS).
    if (c == 'E' && i + 1 < s.size() && s[i + 1] == 'V') {
      code += "AF";
      ++i;
      continue;
    }
    if (IsVowel(c)) {
      c = 'A';
    } else if (c == 'Q') {
      c = 'G';
    } else if (c == 'Z') {
      c = 'S';
    } else if (c == 'M') {
      c = 'N';
    } else if (c == 'K') {
      if (i + 1 < s.size() && s[i + 1] == 'N') {
        c = 'N';
      } else {
        c = 'C';
      }
    } else if (c == 'S' && i + 2 < s.size() && s.compare(i, 3, "SCH") == 0) {
      code += "SS";
      i += 2;
      continue;
    } else if (c == 'P' && i + 1 < s.size() && s[i + 1] == 'H') {
      code += "F";
      ++i;
      continue;
    } else if (c == 'H') {
      const bool prev_vowel = IsVowel(s[i - 1]);
      const bool next_vowel = i + 1 < s.size() && IsVowel(s[i + 1]);
      // Replacement uses the already-converted previous character so
      // vowel folding (-> A) is respected.
      if (!prev_vowel || !next_vowel) c = code.back();
    } else if (c == 'W' && IsVowel(s[i - 1])) {
      c = code.back();
    }
    if (code.empty() || code.back() != c) code.push_back(c);
  }

  // Terminal cleanups.
  if (!code.empty() && code.back() == 'S') code.pop_back();
  ReplaceSuffix(&code, "AY", "Y");
  while (!code.empty() && code.back() == 'A') code.pop_back();
  if (code.empty()) code.push_back(s[0]);
  if (code.size() > 6) code.resize(6);
  return code;
}

std::string ConsonantSkeleton(std::string_view name) {
  std::string s = CleanAlpha(name);
  if (s.empty()) return "";
  // Digraph normalisations.
  ReplacePrefix(&s, "MC", "MAC");
  std::string normalized;
  for (size_t i = 0; i < s.size(); ++i) {
    if (i + 1 < s.size()) {
      const char a = s[i], b = s[i + 1];
      if (a == 'P' && b == 'H') {
        normalized.push_back('F');
        ++i;
        continue;
      }
      if (a == 'C' && b == 'K') {
        normalized.push_back('K');
        ++i;
        continue;
      }
      if (a == 'G' && b == 'H') {
        normalized.push_back('G');
        ++i;
        continue;
      }
    }
    normalized.push_back(s[i]);
  }
  std::string out;
  out.push_back(normalized[0]);
  for (size_t i = 1; i < normalized.size(); ++i) {
    const char c = normalized[i];
    if (IsVowel(c)) continue;
    if (out.back() == c) continue;  // Collapse doubles.
    out.push_back(c);
  }
  return out;
}

double SoundexSimilarity(std::string_view a, std::string_view b) {
  const std::string ca = Soundex(a);
  if (ca.empty()) return 0.0;
  return ca == Soundex(b) ? 1.0 : 0.0;
}

}  // namespace snaps
