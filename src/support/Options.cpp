//===- support/Options.cpp ------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "support/Options.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

using namespace gstm;

Options Options::parse(int Argc, const char *const *Argv) {
  Options Opts;
  if (Argc > 0)
    Opts.Tool = toolName(Argv[0]);
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      Opts.Positional.push_back(Arg);
      continue;
    }
    Arg = Arg.substr(2);
    auto Eq = Arg.find('=');
    if (Eq == std::string::npos)
      Opts.Values[Arg] = "1";
    else
      Opts.Values[Arg.substr(0, Eq)] = Arg.substr(Eq + 1);
  }
  return Opts;
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> Out;
  Out.reserve(Values.size());
  for (const auto &[K, V] : Values)
    Out.push_back(K);
  return Out;
}

std::string gstm::toolName(const char *Argv0) {
  std::string Tool = Argv0;
  return Tool.substr(Tool.find_last_of('/') + 1);
}

void Options::fail(const std::string &Key, const std::string &Why) const {
  std::fprintf(stderr, "%s: --%s %s\n", Tool.c_str(), Key.c_str(),
               Why.c_str());
  std::exit(2);
}

int64_t Options::getInt(const std::string &Key, int64_t Default) const {
  auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  const char *Text = It->second.c_str();
  char *End = nullptr;
  errno = 0;
  const long long V = std::strtoll(Text, &End, 10);
  if (*Text == '\0' || *End != '\0' || errno == ERANGE)
    fail(Key, "must be an integer, not '" + It->second + "'");
  return V;
}

double Options::getDouble(const std::string &Key, double Default) const {
  auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  const char *Text = It->second.c_str();
  char *End = nullptr;
  const double V = std::strtod(Text, &End);
  if (*Text == '\0' || *End != '\0')
    fail(Key, "must be a number, not '" + It->second + "'");
  return V;
}

std::string Options::getString(const std::string &Key,
                               const std::string &Default) const {
  auto It = Values.find(Key);
  return It == Values.end() ? Default : It->second;
}

bool Options::getBool(const std::string &Key, bool Default) const {
  auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  const std::string &V = It->second;
  if (V != "1" && V != "0" && V != "true" && V != "false")
    fail(Key, "must be 1, 0, true or false, not '" + V + "'");
  return V == "1" || V == "true";
}

/// The rule a value outside [Min, Max] broke, in the shortest text that
/// reads back as each bound.
template <class T> static std::string rangeRule(T Min, T Max) {
  auto Text = [](T V) {
    char Buf[32];
    return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  };
  if (Max >= std::numeric_limits<T>::max())
    return "must be at least " + Text(Min);
  return "must be in [" + Text(Min) + ", " + Text(Max) + "]";
}

int64_t Options::getInt(const std::string &Key, int64_t Default, int64_t Min,
                        int64_t Max) const {
  if (!has(Key))
    return Default;
  const int64_t V = getInt(Key, Default);
  if (V < Min || V > Max)
    fail(Key, rangeRule(Min, Max));
  return V;
}

double Options::getDouble(const std::string &Key, double Default, double Min,
                          double Max) const {
  if (!has(Key))
    return Default;
  const double V = getDouble(Key, Default);
  if (!(V >= Min && V <= Max))
    fail(Key, rangeRule(Min, Max));
  return V;
}

OptionSet::OptionSet(std::string Tool, std::string Banner,
                     std::vector<OptionSpec> Specs, std::string Positionals)
    : Tool(std::move(Tool)), Banner(std::move(Banner)),
      Specs(std::move(Specs)), Positionals(std::move(Positionals)) {}

std::string OptionSet::usage() const {
  std::ostringstream Out;
  Out << Tool << " - " << Banner << "\n\nusage: " << Tool << " [options]";
  if (!Positionals.empty())
    Out << " " << Positionals;
  Out << "\n\noptions:\n";
  size_t Width = 0;
  auto Render = [](const OptionSpec &S) {
    std::string Left = "--" + S.Key;
    if (!S.Value.empty())
      Left += "=" + S.Value;
    return Left;
  };
  for (const OptionSpec &S : Specs)
    Width = std::max(Width, Render(S).size());
  for (const OptionSpec &S : Specs) {
    std::string Left = Render(S);
    Out << "  " << Left << std::string(Width - Left.size() + 2, ' ')
        << S.Help << "\n";
  }
  Out << "  --help" << std::string(Width > 6 ? Width - 6 + 2 : 2, ' ')
      << "show this help\n";
  return Out.str();
}

bool OptionSet::validate(const Options &Opts, std::string &Error) const {
  for (const std::string &K : Opts.keys()) {
    bool Known = K == "help";
    for (const OptionSpec &S : Specs)
      Known = Known || S.Key == K;
    if (!Known) {
      Error = "unknown option '--" + K + "'";
      return false;
    }
  }
  return true;
}

Options OptionSet::parseOrExit(int Argc, const char *const *Argv) const {
  Options Opts = Options::parse(Argc, Argv);
  if (Opts.has("help")) {
    std::fputs(usage().c_str(), stdout);
    std::exit(0);
  }
  std::string Error;
  if (!validate(Opts, Error)) {
    std::fprintf(stderr, "%s: %s\n\n%s", Tool.c_str(), Error.c_str(),
                 usage().c_str());
    std::exit(2);
  }
  return Opts;
}
