#include "storage/types.h"

#include <cstdio>
#include <cstdlib>

namespace bdcc {

const char* TypeName(TypeId type) {
  switch (type) {
    case TypeId::kInt32:
      return "int32";
    case TypeId::kInt64:
      return "int64";
    case TypeId::kFloat64:
      return "float64";
    case TypeId::kString:
      return "string";
    case TypeId::kDate:
      return "date";
    case TypeId::kBool:
      return "bool";
  }
  return "?";
}

int FixedWidth(TypeId type) {
  switch (type) {
    case TypeId::kInt32:
    case TypeId::kDate:
      return 4;
    case TypeId::kInt64:
    case TypeId::kFloat64:
      return 8;
    case TypeId::kString:
      return 4;  // dictionary code
    case TypeId::kBool:
      return 1;
  }
  return 8;
}

int Value::Compare(const Value& other) const {
  if (type_ == TypeId::kString || other.type_ == TypeId::kString) {
    BDCC_CHECK_MSG(type_ == TypeId::kString && other.type_ == TypeId::kString,
                   "cannot compare string with non-string");
    return s_.compare(other.s_) < 0 ? -1 : (s_ == other.s_ ? 0 : 1);
  }
  if (type_ == TypeId::kFloat64 || other.type_ == TypeId::kFloat64) {
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a == b ? 0 : 1);
  }
  return i_ < other.i_ ? -1 : (i_ == other.i_ ? 0 : 1);
}

std::string Value::ToString() const {
  char buf[64];
  switch (type_) {
    case TypeId::kString:
      return s_;
    case TypeId::kFloat64:
      std::snprintf(buf, sizeof(buf), "%.4f", d_);
      return buf;
    case TypeId::kDate:
      return DateToString(static_cast<int32_t>(i_));
    case TypeId::kBool:
      return i_ ? "true" : "false";
    default:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(i_));
      return buf;
  }
}

// Howard Hinnant's civil-days algorithm.
int32_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int32_t z, int* year, int* month, int* day) {
  z += 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int y = static_cast<int>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : static_cast<unsigned>(-9));
  *year = y + (m <= 2);
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

std::string DateToString(int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  // Room for three full-range ints ("-2147483648") and two dashes.
  char buf[3 * 11 + 2 + 1];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

int32_t ParseDate(std::string_view text) {
  BDCC_CHECK_MSG(text.size() == 10 && text[4] == '-' && text[7] == '-',
                 "date must be YYYY-MM-DD");
  int y = std::atoi(std::string(text.substr(0, 4)).c_str());
  int m = std::atoi(std::string(text.substr(5, 2)).c_str());
  int d = std::atoi(std::string(text.substr(8, 2)).c_str());
  return DaysFromCivil(y, m, d);
}

}  // namespace bdcc
