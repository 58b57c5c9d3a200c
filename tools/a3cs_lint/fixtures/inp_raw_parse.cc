// Fixture: inp-raw-parse must fire on C and std::sto* number parsers.
#include <cstdlib>
#include <string>

// A member named like a parser is not the std parser.
template <class Parser>
double read_knobs(const char* text, const std::string& s, const Parser& p) {
  const int a = std::atoi(text);                  // inp-raw-parse
  const long b = std::strtol(text, nullptr, 10);  // inp-raw-parse
  const double c = std::stod(s);                  // inp-raw-parse
  return a + static_cast<double>(b) + c + p.stod(s) + p->stoi(s);
}
